"""Policy images and deltas: the worker seeding/divergence artifacts."""

import pytest

from repro.core.credentials import anyone, has_role
from repro.core.errors import ConfigurationError
from repro.core.policy import Action, grant
from repro.gateway.engine import EpochalShardRouter
from repro.multicore.image import (
    PolicyDelta,
    PolicyImage,
    router_digests,
)


def policies():
    return [grant(has_role("doctor"), Action.READ, "hospital/**"),
            grant(anyone(), Action.READ, "school/summary"),
            grant(has_role("nurse"), Action.WRITE, "clinic/**")]


def compiled_router(policy_list=None, shard_count=4):
    return EpochalShardRouter.from_policies(
        policy_list if policy_list is not None else policies(),
        shard_count=shard_count)


class TestDigests:
    def test_same_policies_same_digests(self):
        # Two routers over the *same* policy objects — the dispatcher
        # and a worker's separately-built image — agree digest for
        # digest.  (Digests cover policy ids, so two routers over
        # freshly-built equivalent policies would not.)
        shared = policies()
        assert (router_digests(compiled_router(shared))
                == router_digests(compiled_router(shared)))

    def test_different_policies_differ_somewhere(self):
        extra = policies() + [grant(anyone(), Action.READ, "lab/**")]
        assert (router_digests(compiled_router())
                != router_digests(compiled_router(extra)))

    def test_subset_restricts_to_requested_shards(self):
        digests = router_digests(compiled_router(), shards=(1, 3))
        assert set(digests) == {1, 3}


class TestPolicyImage:
    def test_matching_digests_have_no_mismatches(self):
        router = compiled_router()
        image = PolicyImage.of_router(router, version=2)
        assert image.version == 2
        assert image.mismatches(router_digests(router)) == {}

    def test_disagreement_reports_expected_and_actual(self):
        router = compiled_router()
        image = PolicyImage.of_router(router)
        actual = dict(router_digests(router))
        actual[0] = "0" * 64
        mismatches = image.mismatches(actual)
        assert set(mismatches) == {0}
        expected, got = mismatches[0]
        assert got == "0" * 64 and expected != got

    def test_missing_shard_counts_as_mismatch(self):
        router = compiled_router()
        image = PolicyImage.of_router(router)
        actual = dict(router_digests(router))
        del actual[2]
        assert image.mismatches(actual)[2][1] is None


class TestPolicyDelta:
    def test_versions_start_at_one(self):
        with pytest.raises(ConfigurationError):
            PolicyDelta(0)

    def test_adds_and_removes_are_frozen_tuples(self):
        policy = grant(anyone(), Action.READ, "lab/**")
        delta = PolicyDelta(1, adds=[policy], removes=[17])
        assert delta.adds == (policy,)
        assert delta.removes == (17,)
