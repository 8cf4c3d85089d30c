"""satakit: self-authenticating traditional addresses, end to end.

Onion-address math, SATA parsing, sattestation credential issuance and
verification, browser-side connection validation, contextual trust
evaluation, the navigation decision, and a deterministic simulator for
onion-discovery attacks.

Each public name is imported from its submodule on first access
(PEP 562), so ``import satakit`` and any one submodule load only what
they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines; the one list of exports
_EXPORTS = {
    "errors": ("SataError",),
    "onion": ("KeyPair", "OnionAddress", "encode_onion", "keygen", "parse_onion", "sign", "verify"),
    "sata": (
        "Sata",
        "SataForm",
        "expected_sans",
        "parse_sata",
        "securedrop_rewrite",
        "to_query_form",
        "to_subdomain_form",
    ),
    "credential": (
        "Binding",
        "Sattestation",
        "SattestationBody",
        "canonical_bytes",
        "check_freshness",
        "from_transport_json",
        "is_self_sattestation",
        "issue",
        "make_self_sattestation",
        "to_transport_json",
        "verify_credential",
    ),
    "validation": (
        "AltSvcDecision",
        "CertDescriptor",
        "Verdict",
        "VerdictOutcome",
        "fingerprint_cert",
        "validate_alt_svc",
        "validate_connection",
        "validate_onion_location",
    ),
    "trust": (
        "ChainLink",
        "RotationResult",
        "TrustChain",
        "TrustPolicy",
        "TrustRoot",
        "evaluate",
        "expired_rotation_form",
        "rotation_check",
    ),
    "browser": ("Outcome", "navigate"),
    "sim": (
        "AltSvcHeader",
        "AttackerCaps",
        "BrowserConfig",
        "Scenario",
        "SiteHeaders",
        "SiteRecord",
        "Step",
        "World",
        "load_scenario",
        "run_matrix",
        "run_scenario",
        "run_visit",
        "track_alt_svc_exposure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
