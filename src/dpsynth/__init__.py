"""Privacy-preserving synthetic news text.

Generate labeled synthetic records through a prompted backend, release
per-class token histograms under calibrated Laplace or Gaussian noise,
reconcile the corpus to the noised release, then measure what the privacy
cost does to downstream classifiers and how much membership leakage it
removes.
"""

__version__ = "0.1.0"
