"""Goal-differential power ratings and pairwise tournament selection.

Pipeline: parse a season's game log, solve power ratings (one linear solve), run the
three-step pairwise tournament, break ties into a full ranking, and select or
compare tournament fields. The experiments module measures sensitivity and
agreement against the RPI baseline.

The public names below are imported from their modules on first use, so
``import powerwise`` loads no submodule and ``powerwise.load_games`` loads only
``ingest`` (and the ``errors`` it raises).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ComputationError", "DataWarning", "ParseError", "PowerwiseError", "ValidationError"),
    "experiments": (
        "PerturbationReport",
        "RegressionReport",
        "kendall_tau",
        "perturbation_experiment",
        "pooled_regression",
        "strength_regression",
    ),
    "ingest": (
        "GameRecord",
        "SeasonDataset",
        "apply_aliases",
        "build_season",
        "find_game",
        "flip_game",
        "load_alias_map",
        "load_games",
        "parse_games",
        "serialize_games",
    ),
    "pairwise": ("ComparisonConfig", "PairwiseOutcome", "PowerwiseTable", "decisiveness_report", "run_tournament"),
    "power_rating": ("PowerRatingTable", "SolverConfig", "estimate_hfa", "rating_difference", "solve_power_ratings"),
    "rpi": ("RpiConfig", "RpiTable", "compute_rpi", "schedule_swap_experiment"),
    "selection": ("SelectionResult", "diff_selections", "select_at_large"),
    "tiebreak": ("RankingEntry", "RankingList", "break_ties", "rank_season"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
