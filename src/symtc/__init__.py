"""Symmetric simplicial and combinatorial complexity of finite complexes and
finite posets, with machine-checkable certificates."""

from .actions import (
    Permutation,
    act_name,
    act_simplex,
    check_equivariant_tuple,
    symmetric_group,
)
from .complexes import (
    OrderedComplex,
    SimplicialComplex,
    SimplicialMap,
    euler_characteristic,
    from_facets,
    is_subcomplex,
    restrict_map,
    validate_simplicial_map,
)
from .complexity import (
    INFINITY,
    ComplexityResult,
    GoodPiece,
    cc_plain,
    cc_sigma,
    sc_plain,
    sc_sigma,
    stabilize_over_r,
    tc_sigma_finite,
    tc_sigma_finite_sections,
)
from .constructions import (
    ProductComplex,
    SubdivisionTower,
    barycentric_subdivide,
    build_tower,
    iota,
    ordered_power,
    poset_tower,
    projection_pi,
    projection_rho,
    tau,
    totalize,
)
from .posets import (
    FinitePoset,
    MonotoneMap,
    MultiFence,
    face_poset,
    multi_fence,
    order_complex,
    poset_from_relations,
    power_poset,
    sd_poset,
)
from .search import (
    SearchResult,
    plain_comb_homotopic,
    plain_contiguous,
    sym_comb_homotopic,
    sym_contiguous,
)
from .translate import (
    contiguity_to_homotopy,
    homotopy_to_contiguity,
    retract_section,
    section_from_homotopy,
)
from .verify import validate
from .witnesses import (
    CombinatorialHomotopy,
    ContiguityChain,
    SectionWitness,
    certificate_from_doc,
)

__version__ = "0.1.0"
