"""Exception types raised by the toolkit.

Everything derives from :class:`LabenchError` so callers can catch one base
class at the CLI boundary; the leaf classes mirror the failure modes of the
individual subsystems.
"""


class LabenchError(Exception):
    pass


# --- grids / NRRD I/O ---------------------------------------------------

class NrrdError(LabenchError):
    pass


class NotNrrdFile(NrrdError):
    """File does not start with an NRRD0001..NRRD0005 magic line."""


class MissingHeaderField(NrrdError):
    """A required header field (type/dimension/sizes/encoding) is absent."""


class MalformedHeader(NrrdError):
    """A header field is present but cannot be parsed."""


class UnsupportedEncoding(NrrdError):
    """Encoding other than raw/gzip."""


class UnsupportedEndian(NrrdError):
    """Big-endian payloads are rejected."""


class UnsupportedType(NrrdError):
    """Sample type outside {8-bit unsigned, 16-bit unsigned, 32-bit float}."""


class UnsupportedDimension(NrrdError):
    """Grids other than 3-D."""


class UnsupportedSpaceDirections(NrrdError):
    """Non-diagonal (non-axis-aligned) space directions."""


class UnsupportedField(NrrdError):
    """Header fields that move the payload: data file, line/byte skip."""


class DimensionMismatch(NrrdError):
    """Payload byte count disagrees with the header-implied count."""


class NotBinaryMask(NrrdError):
    """A grid read as a mask holds a value other than 0 or 1."""


class NonPositiveSpacing(LabenchError):
    """Spacing components must be strictly positive and finite."""


class IoFailure(LabenchError):
    """Underlying OS-level read/write failure."""


class FactorExceedsDim(LabenchError):
    """Downsampling factor larger than the corresponding dimension."""


class GeometryMismatch(LabenchError):
    """Paired grids must share dims and spacing."""


# --- quality ------------------------------------------------------------

class EmptyMask(LabenchError):
    pass


class DegenerateContrast(LabenchError):
    """Foreground mean does not exceed background mean."""


class EmptyBackground(LabenchError):
    """No background voxels left after dilation and edge exclusion."""


class EmptyInput(LabenchError):
    pass


# --- metrics ------------------------------------------------------------

class DegenerateTruth(LabenchError):
    """Ground truth lacks foreground or background voxels."""


# --- preprocess ---------------------------------------------------------

class ConstantVolume(LabenchError):
    pass


class TooManyTiles(LabenchError):
    """More CLAHE tiles than slice pixels along an axis."""


class InvalidSpec(LabenchError):
    """Malformed augmentation specification."""


# --- pipeline -----------------------------------------------------------

class NoForeground(LabenchError):
    """Thresholding produced an empty foreground."""


class BoxInconsistent(LabenchError):
    """Patch dimensions disagree with the recorded ROI box."""


# --- stats / leaderboard ------------------------------------------------

class EmptyCases(LabenchError):
    pass


class DegenerateSample(LabenchError):
    """Sample too small or with no usable variance for a t-test."""


class DegeneratePartition(LabenchError):
    """Attribute does not split the teams into at least two groups."""


class ConstantSample(LabenchError):
    """Pearson correlation of a constant sample is undefined."""


class CaseSetMismatch(LabenchError):
    """Teams in one leaderboard must share the same case-id set."""


# --- phantom ------------------------------------------------------------

class GeometryOutOfBounds(LabenchError):
    """Phantom geometry exceeds the volume and clipping is disallowed."""


class InfeasibleTier(LabenchError):
    """Requested quality band unreachable with the given intensities."""


# --- CSV inputs ---------------------------------------------------------

class MalformedCsv(LabenchError):
    """A CSV input lacks a needed column or holds a non-numeric cell."""
