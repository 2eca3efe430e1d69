"""Exception and warning types used across cylwave, and the record that
defers them per entry of a stack."""
from __future__ import annotations

import warnings

import numpy as np


class CylwaveError(Exception):
    """Base class for all cylwave errors."""


# --- numeric kernel ---

class SingularMatrix(CylwaveError):
    """Matrix inversion hit a numerically singular pivot."""

    def __init__(self, msg: str = "matrix is singular", cond: float | None = None):
        super().__init__(msg if cond is None else f"{msg} (cond~{cond:.3e})")
        self.cond = cond


class Overflow(CylwaveError):
    """Result entries exceeded floating-point range."""


# --- cylinder functions ---

class DomainError(CylwaveError):
    """Argument outside the function's domain (e.g. Y_n or H_n at x=0)."""


class AccuracyLoss(UserWarning):
    """Requested order/argument lies outside the validated accuracy range."""


class EntryFaults:
    """Per entry of a stack, the first typed error met and the AccuracyLoss
    messages of the cylinder functions used, each written once by the
    cylfun.Tables that owns the record: stacked kernels record here what a
    scalar call would raise or warn, and `check` surfaces it."""

    def __init__(self, size: int):
        self.errors = np.full(size, None, dtype=object)
        self.notes = [[] for _ in range(size)]

    @property
    def ok(self) -> np.ndarray:
        return np.equal(self.errors, None)

    def fail(self, rows: np.ndarray, error: CylwaveError) -> None:
        """Give error to the entries of the mask rows that have none yet."""
        self.errors[rows & self.ok] = error

    def check(self, i: int, stacklevel: int = 3) -> None:
        for msg in self.notes[i]:
            warnings.warn(msg, AccuracyLoss, stacklevel=stacklevel)
        if self.errors[i] is not None:
            raise self.errors[i]


# --- material / profile ---

class MaterialSingular(CylwaveError):
    """Stiffness block not invertible (degenerate moduli)."""


class OutOfSupport(CylwaveError):
    """Radius outside the profile's support interval."""


class DecouplingError(CylwaveError):
    """Sub-block extraction requested where the motions do not decouple."""


# --- matricant ---

class DuplicatePoints(CylwaveError):
    """Lagrange abscissae must be distinct."""


class StepTooLarge(CylwaveError):
    """A single step with ||h*Q|| beyond the overflow guard."""


class MatricantOverflow(UserWarning):
    """Intermediate matricant entries exceeded 1e12 (growing-solution swamp)."""


# --- impedance ---

class DegenerateSpan(CylwaveError):
    """Two-point conversion undefined: M2 singular (zero-length span)."""


class ResonantInner(CylwaveError):
    """Z1 - z0 singular in the conditional-impedance reconstruction."""


class PoleCrossing:
    """Informational record: a Moebius step landed near an impedance pole.

    Not an exception.  The marcher continues; callers may inspect the
    collected events.
    """

    __slots__ = ("r", "cond")

    def __init__(self, r: float, cond: float):
        self.r = r
        self.cond = cond

    def __repr__(self) -> str:
        return f"PoleCrossing(r={self.r:.6g}, cond={self.cond:.3e})"


# --- exact TI layers ---

class KzZeroCoupling(CylwaveError):
    """kz=0 requested through the generic coupling formula; use the kz=0 path."""


class ModeResonance(CylwaveError):
    """Shared denominator of the exact impedance vanished (impedance pole)."""


class BasisDegenerate(CylwaveError):
    """Cylinder-function basis block numerically singular for this layer."""


class InterfaceResonance(CylwaveError):
    """Z4a + Z1b singular when joining two-point impedances."""


# --- scattering ---

class TangentialResonance(CylwaveError):
    """q2 = 0: traction-free tangential mode at the outer surface."""


class InteriorPoint(CylwaveError):
    """Field requested at r < a (exterior-only field maps)."""


# --- CLI ---

class UsageError(CylwaveError):
    """Bad or conflicting command-line flags."""


class SchemaError(CylwaveError):
    """Profile JSON failed validation; message carries a JSON pointer."""
