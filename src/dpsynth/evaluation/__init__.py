"""Downstream evaluation: TF-IDF features, MNB and SVM classifiers, ICL, reports."""
