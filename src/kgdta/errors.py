"""Exception types raised across the pipeline."""


class KgdtaError(Exception):
    """Base class for all package errors."""


# graph construction
class ModalityConflict(KgdtaError):
    """Same node id used with two different modalities (or conflicting identity)."""


class KindViolation(KgdtaError):
    """Entity/attribute kind rules broken (e.g. data property targeting an entity)."""


# schema / serialization
class SchemaParse(KgdtaError):
    """Schema file is not valid JSON."""


class SchemaValidation(KgdtaError):
    """Schema is well-formed JSON but semantically invalid."""


class SourceRead(KgdtaError):
    """A declared data source could not be read."""


class RowDecode(KgdtaError):
    """A source row could not be decoded. Collected into the build report."""


class NTriplesParse(KgdtaError):
    """Malformed line in an N-Triples file."""


# handlers / embeddings
class MissingHandler(KgdtaError):
    """No handler registered for a modality present in the graph."""


class DimMismatch(KgdtaError):
    """Vector length inconsistent with the declared dimension for its modality."""


class ParseError(KgdtaError):
    """Malformed external embedding table, dataset file or checkpoint."""


class NonFinite(KgdtaError):
    """A computation produced or received NaN/inf."""


# numerics
class ShapeMismatch(KgdtaError):
    """Tensor shapes incompatible for the requested operation."""


# gnn
class MissingProjection(KgdtaError):
    """Encoder has no projection for an attribute modality in scope."""


# pretraining
class UnknownRelation(KgdtaError):
    """Scoring function asked about a relation it has no embedding for."""


class ExhaustedCandidates(KgdtaError):
    """Admissible sets too small to produce a non-positive corruption."""


class EmptyTrainingSet(KgdtaError):
    """No positive triples survive the link filter / split."""


class InvalidK(KgdtaError):
    """Partition count out of range for the graph."""


# downstream
class InfeasibleSplit(KgdtaError):
    """Requested split cannot produce non-empty parts."""


class ZeroVariance(KgdtaError):
    """Correlation undefined: predictions or labels are constant."""


class EmptyTrain(KgdtaError):
    """Downstream training set is empty."""


class EmptyEnsemble(KgdtaError):
    """Ensemble has no members."""
