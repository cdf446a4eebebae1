"""kreinls: indefinite (Krein-space) operator least squares.

Schur complements of selfadjoint weights relative to subspaces, weighted
indefinite minimum and min-max solvers, trace-functional optimization,
instance generators, brute-force oracles and theorem verification suites,
all over a concrete finite-dimensional coordinate model.
"""

from .core import (DEFAULT_TOL, KreinSpace, SignatureOperator,
                   is_krein_positive, is_krein_selfadjoint, krein_adjoint,
                   krein_gram, random_signature_operator, standard_space)
from .evidence import (ProjectionInfimumReport, SaddleReport,
                       TraceLawsReport, minimality_certificate,
                       projection_infimum_check, projection_with_kernel,
                       verify_saddle, verify_trace_laws)
from .errors import (DimensionMismatch, InternalCertificateFailure,
                     KreinError, MalformedInput, MinMaxUnsolvable,
                     NormalEquationUnsolvable, NotASignature,
                     NotComplementable, NotKreinSelfadjoint,
                     NotWeaklyComplementable, OperandOverflow,
                     RangeNotNonnegative, RangeNotNonpositive,
                     RankThresholdAmbiguous, UnknownSuite,
                     UnsatisfiableSpec)
from .generate import (REGIMES, GeneratedInstance, GeneratorSpec,
                       generate_instance)
from .jtrace import (ChangeOfSignatureReport, Js2Report, TraceMinMaxSolution,
                     TraceMinSolution, TraceReport, change_of_signature,
                     frechet_derivative, frechet_fd, hs_norm_assoc,
                     js2_inner, js2_signature_identity, solve_trace_min,
                     solve_trace_minmax, trace_j, trace_norm_assoc,
                     trace_objective, trace_objective_xy)
from .lsq import (CertificateReport, ImmsSolution, ImsSolution, SplitB,
                  WeightedProblem, eval_f, eval_fj, neutral_shift,
                  normal_residual, normal_solvable, solve_ims, solve_ims_max,
                  solve_imms, solve_normal, solve_wils_vector, split_b,
                  wils_objective)
from .oracles import (InfimumOracleResult, SweepResult, minmax_order_gap,
                      oracle_parameter_sweep, oracle_projection_infimum,
                      oracle_sum_dimension)
from .problem_io import (ProblemData, dump_json, load_operator, load_problem,
                         parse_problem, problem_to_dict)
from .schur import (BlockDecomposition, SchurResult, SchurIdentityReport,
                    block_decompose, decompose_w1w2w3,
                    is_weakly_complementable, schur_complement,
                    verify_schur_identities)
from .subspaces import (Subspace, WSplit, is_complementable,
                        is_w_nonnegative, is_w_nonpositive,
                        oblique_projection, orthogonal_companion, preimage,
                        range_subspace, symmetric_projection, w_split)
from .suites import SUITE_NAMES, VerifyReport, run_suite

__version__ = "0.1.0"
