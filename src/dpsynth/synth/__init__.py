"""Synthetic corpus generation, backends, prompts, and reconciliation."""
