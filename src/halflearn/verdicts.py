"""Verdict strings shared by the testers and learners (JSON-stable)."""

CERTIFIED = "certified"
REJECTED_NON_GAUSSIAN = "rejected_non_gaussian"
LEARNED = "learned"
