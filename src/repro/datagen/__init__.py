"""Seeded synthetic workloads: documents, populations, registries,
tabular data and query mixes (the data-substitution layer of DESIGN.md).

The package re-exports the document and population generators the
serving stack is driven with; ``registry_gen`` (UDDI), ``tabular``
(numpy) and ``workload`` (Author-X) are imported by module path.
"""

from repro.datagen.documents import (
    catalog_document,
    hospital_corpus,
    hospital_documents,
    hospital_record,
    hospital_schema,
)
from repro.datagen.population import (
    CREDENTIAL_TYPES,
    INSURANCE_TYPE,
    PHYSICIAN_TYPE,
    RESEARCHER_TYPE,
    ROLE_NAMES,
    NamedSubjects,
    generate_population,
    hospital_role_hierarchy,
    named_cast,
    random_credential,
)

__all__ = [
    "CREDENTIAL_TYPES", "INSURANCE_TYPE", "NamedSubjects",
    "PHYSICIAN_TYPE", "RESEARCHER_TYPE", "ROLE_NAMES",
    "catalog_document", "generate_population", "hospital_corpus",
    "hospital_documents", "hospital_record", "hospital_role_hierarchy",
    "hospital_schema", "named_cast", "random_credential",
]
