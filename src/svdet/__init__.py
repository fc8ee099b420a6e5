"""Frame-wise singing voice detection toolkit.

Pipeline stages: repeating-pattern vocal separation, MFCC/LPCC/PLP
feature extraction, a convolutional-LSTM block classifier, and
median/HMM temporal smoothing, plus the evaluation harness.
"""

__version__ = "0.1.0"
