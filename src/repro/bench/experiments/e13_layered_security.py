"""E13 — Security cuts across all semantic web layers (§5).

Claim: "for the semantic web to be secure all of its components have to
be secure ... one cannot just have secure TCP/IP built on untrusted
communication layers"; end-to-end security requires every layer.

Operationalization: run the attack corpus against every subset regime of
secured layers (bottom-up, top-down, each-alone, all); report breach
rates and the undermined-layer count.  Then a concrete wire-level
demonstration: the WSA message stack under an interceptor with security
off vs on.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.errors import ServiceFault
from repro.semweb.layers import ATTACK_CORPUS, LayerName, LayerStack
from repro.wsa.actors import ServiceProvider, ServiceRequestor
from repro.wsa.transport import MessageBus
from repro.wsa.wsdl import describe


def _wire_demo(secured: bool) -> tuple[int, int]:
    """(attacks attempted, attacks that succeeded) on the message bus."""
    bus = MessageBus()
    provider = ServiceProvider(
        "svc", describe("S", op=(("data",), ("out",))), bus,
        key_seed=22, require_signatures=secured)
    provider.implement("op", lambda s, p: {"out": p["data"].upper()})
    requestor = ServiceRequestor("alice", bus, key_seed=23)
    provider.trust_requestor("alice", requestor.public_key)
    requestor.trust_provider("svc", provider.public_key)

    attempted = 0
    succeeded = 0

    # Attack 1: tamper in transit.
    def tamper(envelope):
        envelope.parameters["data"] = "evil"
        return envelope

    bus.set_interceptor(tamper)
    attempted += 1
    try:
        out = requestor.invoke("svc", "op", {"data": "good"},
                               sign_request=secured)
        if out["out"] == "EVIL":
            succeeded += 1
    except ServiceFault:
        pass
    bus.set_interceptor(None)

    # Attack 2: replay.
    requestor.invoke("svc", "op", {"data": "good"},
                     sign_request=secured)
    attempted += 1
    try:
        bus.replay_last()
        succeeded += 1
    except ServiceFault:
        pass

    # Attack 3: eavesdrop on a sensitive request parameter (lowercase so
    # the uppercased reply does not alias the probe).
    attempted += 1
    requestor.invoke("svc", "op", {"data": "pan-secret-12345"},
                     sign_request=secured,
                     encrypt=["data"] if secured else None)
    if any("pan-secret-12345" in value
           for value in bus.eavesdropped_values()):
        succeeded += 1
    return attempted, succeeded


def _proof_demo() -> tuple[bool, bool]:
    """(honest proof accepted, forged proof rejected) at the top layer."""
    from repro.core.errors import AuthenticationError
    from repro.crypto.rsa import generate_keypair
    from repro.semweb.trust import (
        ProofEngine,
        Rule,
        TrustPolicy,
        atom,
        check_proof,
        sign_fact,
    )

    authority = generate_keypair(bits=256, seed=24)
    rules = [Rule(atom("trusted", "?s"), (atom("vetted", "?s"),),
                  name="vetted-is-trusted")]
    engine = ProofEngine(rules, [
        sign_fact(atom("vetted", "svc"), "authority",
                  authority.private)])
    trust = TrustPolicy()
    trust.trust("authority", authority.public, ["vetted"])
    honest = engine.prove(atom("trusted", "svc"))
    try:
        check_proof(honest, trust, rules)
        honest_ok = True
    except AuthenticationError:
        honest_ok = False
    bogus_rule = Rule(atom("trusted", "?s"), (), name="everything-goes")
    forged_engine = ProofEngine([bogus_rule], [])
    forged = forged_engine.prove(atom("trusted", "mallory"))
    try:
        check_proof(forged, trust, rules)
        forged_caught = False
    except AuthenticationError:
        forged_caught = True
    return honest_ok, forged_caught


def verdict(result: ExperimentResult) -> list[str]:
    regime = {row[0]: row for row in result.rows}
    ladder = ["none", "network only", "up to XML", "up to RDF",
              "up to ontology", "all layers"]
    rates = [float(regime[name][2]) for name in ladder]
    wire = next((o for o in result.observations if "wire demo" in o), "")
    return failed(
        (regime["all layers"][4] is True, "all layers is end-to-end secure"),
        (regime["all layers"][2] == "0.00", "all layers breach rate is 0.00"),
        (all(row[4] is False for name, row in regime.items()
             if name != "all layers"),
         "no other regime is end-to-end secure"),
        (rates == sorted(rates, reverse=True),
         "breach rate falls as layers are secured bottom-up"),
        (regime["all but network"][3] == 4,
         "an open network layer undermines the 4 layers above it"),
        ("secured message layer 0/3" in wire,
         "no wire attack succeeds on the secured message layer"),
    )


@register("E13", "end-to-end security requires every layer; a single "
                "open layer keeps the stack breachable (§5)", verdict)
def run() -> ExperimentResult:
    rows = []
    regimes: list[tuple[str, set[LayerName]]] = [
        ("none", set()),
        ("network only", {LayerName.NETWORK}),
        ("up to XML", {LayerName.NETWORK, LayerName.XML}),
        ("up to RDF", {LayerName.NETWORK, LayerName.XML, LayerName.RDF}),
        ("up to ontology", {LayerName.NETWORK, LayerName.XML,
                            LayerName.RDF, LayerName.ONTOLOGY}),
        ("all layers", set(LayerName)),
        ("all but network", set(LayerName) - {LayerName.NETWORK}),
        ("XML only", {LayerName.XML}),
    ]
    for name, secured in regimes:
        stack = LayerStack(set(secured))
        rows.append([
            name, len(secured),
            f"{stack.breach_rate(ATTACK_CORPUS):.2f}",
            len(stack.undermined_layers()),
            stack.end_to_end_secure(),
        ])
    open_attempted, open_succeeded = _wire_demo(secured=False)
    closed_attempted, closed_succeeded = _wire_demo(secured=True)
    honest_ok, forged_caught = _proof_demo()
    observations = [
        "only the full stack reaches breach rate 0 and end-to-end "
        "security; 'all but network' keeps 4 secured layers undermined",
        f"wire demo (tamper/replay/eavesdrop): insecure stack "
        f"{open_succeeded}/{open_attempted} attacks succeed; secured "
        f"message layer {closed_succeeded}/{closed_attempted}",
        f"logic/proof/trust demo: honest proof accepted={honest_ok}, "
        f"forged-rule proof rejected={forged_caught}",
    ]
    return ExperimentResult(
        "E13", "Layered security: breach rate per secured-layer regime "
               f"({len(ATTACK_CORPUS)}-attack corpus)",
        ["regime", "secured layers", "breach rate",
         "undermined layers", "end-to-end"],
        rows, observations)
