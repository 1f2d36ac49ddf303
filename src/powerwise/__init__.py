"""Goal-differential power ratings and pairwise tournament selection.

Pipeline: parse a season's game log, solve power ratings (one linear solve), run the
three-step pairwise tournament, break ties into a full ranking, and select or
compare tournament fields. The experiments module measures sensitivity and
agreement against the RPI baseline.
"""

from .errors import (
    ComputationError,
    DataWarning,
    ParseError,
    PowerwiseError,
    ValidationError,
)
from .experiments import (
    PerturbationReport,
    RegressionReport,
    kendall_tau,
    perturbation_experiment,
    pooled_regression,
    strength_regression,
)
from .ingest import (
    GameRecord,
    SeasonDataset,
    apply_aliases,
    build_season,
    find_game,
    flip_game,
    load_alias_map,
    load_games,
    parse_games,
    serialize_games,
)
from .pairwise import (
    ComparisonConfig,
    PairwiseOutcome,
    PowerwiseTable,
    decisiveness_report,
    run_tournament,
)
from .power_rating import (
    PowerRatingTable,
    SolverConfig,
    estimate_hfa,
    rating_difference,
    solve_power_ratings,
)
from .rpi import RpiConfig, RpiTable, compute_rpi, schedule_swap_experiment
from .selection import SelectionResult, diff_selections, select_at_large
from .tiebreak import RankingEntry, RankingList, break_ties, rank_season

__version__ = "0.1.0"

__all__ = [
    "ComparisonConfig",
    "ComputationError",
    "DataWarning",
    "GameRecord",
    "PairwiseOutcome",
    "ParseError",
    "PerturbationReport",
    "PowerRatingTable",
    "PowerwiseError",
    "PowerwiseTable",
    "RankingEntry",
    "RankingList",
    "RegressionReport",
    "RpiConfig",
    "RpiTable",
    "SeasonDataset",
    "SelectionResult",
    "SolverConfig",
    "ValidationError",
    "apply_aliases",
    "break_ties",
    "build_season",
    "compute_rpi",
    "decisiveness_report",
    "diff_selections",
    "estimate_hfa",
    "find_game",
    "flip_game",
    "kendall_tau",
    "load_alias_map",
    "load_games",
    "parse_games",
    "perturbation_experiment",
    "pooled_regression",
    "rank_season",
    "rating_difference",
    "run_tournament",
    "schedule_swap_experiment",
    "select_at_large",
    "serialize_games",
    "solve_power_ratings",
    "strength_regression",
]
