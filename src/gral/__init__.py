"""gral: finite groupoidal realizability kernel and verification harness.

The library builds, in order: finite groupoids with their cartesian-closed
toolkit (`groupoids`); an interval object with its homotopy calculus and
fundamental groupoids (`interval`); assemblies whose objects and
isomorphisms carry explicit realizers (`assemblies`); the path-category
structure on assemblies (`pathcat`); weak dependent products and modest
fibrations (`depprod`); typed combinatory algebras and their fragment
categories (`combalg`); and a seeded verification harness (`generators`,
`suites`, `textfmt`, `cli`).
"""

from .groupoids import (
    FinGroupoid, GFunctor, NatIso, EquivalenceData, Report, SizeCaps,
    validate_groupoid, product, exponential, pullback,
    iso_comma, isofibration_cleavage, equivalence_inverse,
    terminal_groupoid, discrete, codiscrete, cyclic_group, disjoint_union,
)
from .interval import (
    GpdRealizer, Homotopy, IntervalData, check_cogroupoid, gpd_interval,
    identity_homotopy, inverse_homotopy, pi_base_iso, pi_homotopy, vcomp,
)
from .assemblies import (
    Assembly, PGAsmInterval, RealizedMorphism, TwoCell, WeakExpObject,
    compose_morphisms, identity_morphism, is_modest, pgasm_interval,
    product_assembly, realize, terminal_assembly, transpose_morphism,
    twocell_hcompose, twocell_vcompose, validate_assembly, validate_morphism,
    validate_twocell, weak_exponential,
)
from .pathcat import (
    AsmEquivalence, FibrationData, PathObjectData, as_equivalence,
    is_fibration, path_object, pc7_section, pc8_pseudoinverse,
    pullback_assembly, pseudopullback_assembly,
)
from .depprod import (
    DepProd, HomotopyFibre, dependent_product, dp_transpose, fibre_map,
    homotopy_fibre, is_modest_fibration, nabla, realize_into_nabla,
)
from .combalg import (
    TCA, DiscreteAssembly, DiscreteMorphism, bracket_abstract, normalize,
    realizer_category_of, unit_augmentation,
)
from .generators import Gen, SuiteConfig, generate
from .suites import SUITE_NAMES, run_suite

__all__ = [
    "FinGroupoid", "GFunctor", "NatIso", "EquivalenceData", "Report",
    "SizeCaps", "validate_groupoid", "product", "exponential",
    "pullback", "iso_comma", "isofibration_cleavage", "equivalence_inverse",
    "terminal_groupoid", "discrete", "codiscrete", "cyclic_group",
    "disjoint_union",
    "GpdRealizer", "Homotopy", "IntervalData", "check_cogroupoid",
    "gpd_interval", "identity_homotopy", "inverse_homotopy", "pi_base_iso",
    "pi_homotopy", "vcomp",
    "Assembly", "PGAsmInterval", "RealizedMorphism", "TwoCell",
    "WeakExpObject", "compose_morphisms", "identity_morphism", "is_modest",
    "pgasm_interval", "product_assembly", "realize", "terminal_assembly",
    "transpose_morphism", "twocell_hcompose", "twocell_vcompose",
    "validate_assembly", "validate_morphism", "validate_twocell",
    "weak_exponential",
    "AsmEquivalence", "FibrationData", "PathObjectData", "as_equivalence",
    "is_fibration", "path_object", "pc7_section", "pc8_pseudoinverse",
    "pullback_assembly", "pseudopullback_assembly",
    "DepProd", "HomotopyFibre", "dependent_product", "dp_transpose",
    "fibre_map", "homotopy_fibre", "is_modest_fibration", "nabla",
    "realize_into_nabla",
    "TCA", "DiscreteAssembly", "DiscreteMorphism", "bracket_abstract",
    "normalize", "realizer_category_of", "unit_augmentation",
    "Gen", "SuiteConfig", "generate", "SUITE_NAMES", "run_suite",
]
