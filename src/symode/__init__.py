"""symode: symbolic recovery of ODE right-hand sides from trajectory data.

Candidate right-hand sides are finite expressions on fixed binary-tree
templates. A categorical controller proposes operator sequences, each
sequence's continuous parameters are fitted against a one-step Euler
residual loss, and a risk-seeking policy gradient steers the sampling
toward high-scoring sequences.
"""

from .controller import (ControllerPolicy, SampleBatch, log_prob,
                         policy_update, quantile_threshold, sample_sequences)
from .datasets import TrajectoryDataset
from .epidemic import (EpiParams, ModelKind, benchmark_params,
                       generate_trajectories, train_test_split, vector_field)
from .expressions import (BINARY_TAGS, TYPE1, TYPE2, UNARY_TAGS,
                          CompiledExpression, TreeTemplate, build_template,
                          evaluate, evaluate_batch, param_count,
                          param_gradient, to_symbolic_string)
from .forecast import (RolloutResult, per_step_mse, persistence_baseline,
                       replay, rollout)
from .losses import EulerResidualObjective, euler_residual_loss, loss_and_gradient
from .optimize import (OptimConfig, OptimResult, minimize_bfgs,
                       minimize_first_order, minimize_lm, two_stage_minimize)
from .search import (CandidatePool, ScoreRecord, SearchConfig, SystemModel,
                     score_from_loss, score_sequence, search_component)

__version__ = "0.1.0"
