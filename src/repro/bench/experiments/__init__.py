"""Experiment implementations, one module per DESIGN.md experiment id.

Importing this package registers every experiment with
:mod:`repro.bench.harness`.
"""

from repro.bench.experiments import (  # noqa: F401
    a01_query_index,
    a02_deny_aware_configs,
    a03_policy_index,
    a04_static_analysis,
    e01_subject_qualification,
    e02_xml_granularity,
    e03_dissemination_keys,
    e04_third_party_publishing,
    e05_uddi_authentication,
    e06_registry_architectures,
    e07_ppdm_randomization,
    e08_inference_controller,
    e09_rdf_semantic_security,
    e10_p3p_matching,
    e11_flexible_security,
    e12_multiparty_mining,
    e13_layered_security,
    e14_web_transactions,
)
