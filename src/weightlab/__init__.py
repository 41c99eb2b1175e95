"""weightlab: a 1-D laboratory for Muckenhoupt weights, maximal operators,
Calderon-Zygmund decompositions, and mixed weak-type inequalities."""

from .grid import Cube, Grid, build_grid, cells_of
from .weights import (
    Constant,
    GridFunction,
    GridWeight,
    Piecewise,
    Power,
    Product,
    Step,
    dual_weight,
    load_csv,
    load_function_csv,
    parse_weight_spec,
    product_cell_masses,
    realize,
    save_csv,
    save_function_csv,
    with_cached,
)
from .constants import (
    ConstantKind,
    ConstantReport,
    a1_constant,
    a1_local,
    ainf_exp_constant,
    ainf_exp_local,
    ainf_fw_constant,
    ainf_fw_local,
    ap_constant,
    ap_local,
    doubling_check,
    global_constant,
    mixed_local,
    reverse_holder_check,
)
from .maximal import (
    dyadic_maximal,
    dyadic_maximal_brute,
    uncentered_maximal,
    uncentered_maximal_brute,
    weighted_dyadic_maximal,
    weighted_dyadic_maximal_brute,
)
from .norms import WeakTypeReport, l1_norm, lp_norm, mixed_ratio, weak_l1_norm
from .czd import CZDecomposition, cz_decompose, pointwise_domination_check, verify_cz
from .sawyer import (
    PrincipalCubeRecord,
    build_record,
    gamma_filter,
    level_cubes,
    principal_cubes,
    verify_chain,
)
from .experiments import (
    bound_audit_ap,
    buckley_empirical,
    mixed_lemma_check,
    random_a1_weight,
    random_piecewise_weight,
    scaling_fit,
    sharpness_a1_sweep,
    sharpness_product_sweep,
    test_function_corpus,
)

__version__ = "0.1.0"
