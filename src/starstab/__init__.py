"""starstab: finite-dimensional C*-algebras, approximate *-homomorphisms,
and their stabilization to exact ones with quantitative certificates."""

from .algebra import (AlgebraElement, AlgebraShape, HaarSampler, four_unitaries,
                      identity, matrix_unit, matrix_units, zeros)
from .averaging import (AveragedGroupMap, IterationSchedule, average_once,
                        measure_group_map, schedule, stabilize)
from .config import PipelineConfig, load_config, parse_config
from .defects import (ApproxMap, DefectReport, estimate_defect, induction_window,
                      is_eps_nonzero, isometry_diagnostic, normalize, s_iterate)
from .errors import (BranchCutError, ConfigError, ContractionError,
                     EvaluationError, GapError, MultiplicityMismatch,
                     PreconditionError, SingularMapError, SnapError,
                     StabilityError, StageAbort)
from .experiments import (KKEstimate, KKReport, kk_experiment, run_sweep,
                          sweep_csv, tower_experiment)
from .factory import (EmbeddingSpec, InclusionSpec, discretize,
                      exact_homomorphism, haar_conjugator, lattice_quantize,
                      near_identity, near_identity_unitary, perturb_additive,
                      perturb_conjugate)
from .pipeline import (PipelineBudget, PipelineReport, compute_budget,
                       run_pipeline)
from .reps import (BlockDecomposition, Unitarizer, compress, decompose,
                   lift_projection, stone_generator, unitarize)
from .synthesis import (MatrixUnitSystem, TraceExpectation, intertwiner,
                        matrix_unit_correction, near_inclusion_fix)

__version__ = "0.1.0"
