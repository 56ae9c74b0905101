"""Explicit synthesis of multi-controlled NOT and unitary gates.

Builders produce circuits over an intermediate representation whose
register is the tuple of qubit roles (control, target, ancilla
flavors); lowering rewrites Toffolis into two-qubit bases, giving each
compute/uncompute Toffoli pair cheap relative-phase or controlled-V
members.  ``check_equivalence`` checks a circuit against its oracle on
every computational input: on bit planes where its gates permute basis
states up to signs, and on sparse entries otherwise.
``check_symbolic`` proves a C^nX build exact from its steps, as
polynomials over GF(2), past the input cap too.
"""

from types import ModuleType as _ModuleType

from .ir import (
    Circuit,
    CircuitMeta,
    Gate,
    GateKind,
    QubitRole,
    NAMED_UNITARIES,
    append,
    concat,
    count_gates,
    gate_histogram,
    inverse,
    new_circuit,
)
from .ladder import (
    CyclePlan,
    build_cnu,
    build_cnx,
    build_workspace_c3x,
    build_workspace_toffoli,
    plan_ladder,
)
from .cycle import (
    build_cycle_cnx,
    build_cycle_cnx_auto,
    build_two_cycle_cnx,
    group_sizes,
    plan_cycles,
    plan_two_cycle,
)
from .decomp import (
    GateBasis,
    LoweringError,
    PairingPlan,
    ToffoliPair,
    ToffoliRule,
    expand_controlled_unitary,
    lower_circuit,
    lower_toffoli,
    peres_pairing,
    zyz_angles,
)
from .costs import (
    CostReport,
    TableRow,
    ancilla_min_form,
    ancilla_split_form,
    baseline_cv_ops,
    baseline_cv_ops_form,
    best_ancilla_form,
    best_cycle_count,
    cost_report,
    cv_ops_form,
    ladder_ancilla_form,
    ladder_ops_form,
    ladder_toffoli_form,
    make_table,
    render_table_csv,
    render_table_text,
    report_json,
    report_text,
    toffoli_count_form,
    two_cycle_toffoli_form,
)
from .verify import (
    ControlledOracle,
    EquivalenceClass,
    EquivalenceVerdict,
    Mismatch,
    WidthLimitError,
    apply,
    basis_state,
    check_equivalence,
    check_symbolic,
    full_unitary,
    oracle_cnu,
    oracle_cnx,
)
from .qasmio import CircuitFileError, dumps, load, loads, save

__version__ = "0.1.0"

# every public name imported above, in order; the submodules the imports
# bind are not part of it
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
