"""Output checks: how each operation's result is judged.

``exact``: an op succeeds when both engines give exactly the same labelled
distribution, or when an engine refuses with an exception class that
``toyfield`` defines (a named refusal).  Anything else fails: a disagreement
or any other exception, such as the bare ``ValueError`` that
``snap_dyadic`` raises on a non-dyadic result.

``wide``: the CLI's JSON output must equal the interferometers' closed form
exactly.

``sampled``: every label's count must lie within ``Z_BOUND`` standard errors
of the exact reference.  A bound of 5 catches a sampler bug but, unlike 3,
does not fail by chance across the thousands of labels a run checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

Z_BOUND = 5.0

OK = "ok"
REFUSED = "refused"
DISAGREE = "disagree"
CRASH = "crash"
FAILED = "failed"  # any other failed check
FAILURES = (DISAGREE, CRASH, FAILED)


def is_named_refusal(error: BaseException) -> bool:
    """An exception whose class is defined inside the ``toyfield`` package."""
    return type(error).__module__.split(".")[0] == "toyfield"


def assignment_label(events: dict[str, int]) -> str:
    """Label of a joint assignment, e.g. ``x1=0 x2=1``."""
    return " ".join(f"{k}={v}" for k, v in sorted(events.items()))


def check_joint(output: dict[str, str], expected: dict[str, Fraction]) -> str | None:
    """Compare ``toyfield run --format json`` output with a closed-form joint
    distribution; returns a description of the first mismatch, or None."""
    seen = {label: Fraction(value) for label, value in output.items()}
    for label in sorted(set(seen) | set(expected)):
        if seen.get(label, Fraction(0)) != expected.get(label, Fraction(0)):
            return (f"outcome {label!r}: {seen.get(label, Fraction(0))}, "
                    f"closed form {expected.get(label, Fraction(0))}")
    return None


def z_score(count: int, shots: int, p: Fraction) -> float:
    """Binomial z-score of ``count`` out of ``shots`` against probability p;
    infinite when p is 0 or 1 and the count is not exactly what p forces."""
    if p in (0, 1):
        return 0.0 if count == shots * p else math.inf
    pf = float(p)
    return (count / shots - pf) / math.sqrt(pf * (1.0 - pf) / shots)


def check_counts(counts: dict[str, int], shots: int, reference: dict[str, Fraction]
                 ) -> str | None:
    """Every label within ``Z_BOUND`` of the reference; None when it holds."""
    if sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, not {shots}"
    for label in sorted(set(counts) | set(reference)):
        z = z_score(counts.get(label, 0), shots, reference.get(label, Fraction(0)))
        if abs(z) > Z_BOUND:
            return f"label {label!r}: |z| = {abs(z):.2f} > {Z_BOUND}"
    return None
