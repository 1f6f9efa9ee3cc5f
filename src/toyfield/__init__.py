"""Dual-engine simulator for a classical statistical theory of discrete field modes.

The package pairs an epistemically restricted classical engine (binary
occupation and phase bits per mode, flat distributions over supports) with an
exact complex state-vector reference, and demonstrates that the two produce
identical outcome statistics for the Mach-Zehnder interferometer and its
classic variants: the bomb tester, the delayed-choice experiment, and the
quantum eraser.  A spatially localized cellular-automaton engine and a Monte
Carlo frequency estimator round out the set.

The package exports the register shape and the knowledge states; a single
physical state is a packed int, as every engine reads it.  Importing the
package loads only :mod:`toyfield.phase_space`; a toy ``toyfield run`` of a
program file adds only the circuit language and the toy engine.  The
scenario catalogue (:mod:`toyfield.scenarios`), the grid printer
(:mod:`toyfield.grid`), the check suites (:mod:`toyfield.checks`), the
coarse-graining, the quantum kernel, Monte Carlo and the wire automaton load
only when a command uses them.
"""

from toyfield.phase_space import (
    EpistemicState,
    RegisterShape,
    make_occupied,
    make_vacuum,
)

__all__ = [
    "EpistemicState",
    "RegisterShape",
    "make_occupied",
    "make_vacuum",
]

__version__ = "0.1.0"
