"""Desk-scale laboratory for sandwich couplings of random regular graphs.

Exact edge-deletion and edge-addition coupling processes, brute-force regular
graph counting, alternating-path and switching constructions, pseudorandom
property audits, and the goodness-of-fit machinery to verify all of it.
"""

__version__ = "0.1.0"

from .graphs import (
    SimpleGraph,
    GraphFormatError,
    canonical_key,
    canonical_labeling,
    complement,
    complete_graph,
    cycle_graph,
    difference,
    edges_between,
    edges_inside,
    empty_graph,
    format_graph_literal,
    gnp_graph,
    intersection,
    is_regular,
    multi_covered_edges,
    neighborhood,
    parse_graph_literal,
    random_regular_graph,
    union,
)
from .oracle import (
    CapacityError,
    OracleCache,
    count_extensions,
    count_extensions_with_edge,
    count_regular_spanning_subgraphs,
    count_with_edge,
    enumerate_extensions,
    enumerate_regular,
    extension_profile,
    spanning_profile,
)
from .tape import RandomnessTape, derive_seed
from .coupling import (
    ClassLaw,
    CoupledLowerRun,
    CoupledUpperRun,
    ModelParams,
    ProcessTranscript,
    class_stage_laws,
    closed_form_class_laws,
    closed_form_law,
    companion_threshold,
    exact_kernel_step,
    exact_marginal,
    exact_stage_laws,
    run_coupled_lower,
    run_coupled_upper,
    run_gstar,
    run_gsub,
    run_lower_addition,
    run_reference_sequences,
    run_upper_deletion,
    sample_f,
    sample_fminus,
    uniform_regular,
    verify_transcript_interleaving,
)
from .switching import (
    SwitchingGraph,
    alternating_paths,
    build_le_graph,
    build_lef_graph,
    build_six_cycle_graph,
    build_ten_cycle_graph,
    count_alternating,
    six_cycle_statistic,
    six_cycle_switches,
    switch_neighbors_le,
    switch_neighbors_le_absent,
    switch_neighbors_lef,
    ten_cycle_switches,
    verify_double_count,
    weighted_endpoint_sum,
)
from .audit import (
    PropertyReport,
    check_connection,
    check_degree_band,
    check_expansion_fk,
    check_expansion_k,
    check_fk_degrees,
    check_local_density,
    check_neighborhood_sums,
    check_uv_distribution,
    ell0,
)
from .stats import (
    FitResult,
    ModelViolationError,
    PolynomialStat,
    RateEstimate,
    ScheduleMass,
    TranslationReport,
    chernoff_bound,
    chi_square_uniformity,
    containment_rate,
    mcdiarmid_bound,
    path_polynomial_stats,
    schedule_mass,
    translation_check,
)
from .cli import ExperimentConfig, emit_plot_data, run_experiment
