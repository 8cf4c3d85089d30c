from __future__ import annotations

import contextlib
import io
import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satakit import expected_sans, make_self_sattestation, to_query_form, to_transport_json
from satakit.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from satakit.errors import UnrepresentableField

from conftest import DATA_DIR, FIXTURES_DIR, cert_for, key_for, sata_for, seed_for, third_party
from oracles import FACEBOOK_LABEL, SELFAUTH_LABEL
from test_credential import fig1_body, paper_shaped_self_sattestation


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bank_files(tmp_path, bank_key, bank_sata, bank_cert, bank_header):
    key_file = tmp_path / "bank.key"
    key_file.write_text(bank_key.secret.hex() + "\n")
    header_file = tmp_path / "bank.satt"
    header_file.write_text(to_transport_json(bank_header) + "\n")
    cert_file = tmp_path / "bank-cert.json"
    cert_file.write_text(
        json.dumps(
            {
                "fingerprint": bank_cert.fingerprint,
                "san_list": list(bank_cert.san_list),
                "not_before": "2020-01-01",
                "not_after": "2021-01-01",
                "has_sct": True,
            }
        )
    )
    return {
        "key": key_file,
        "header": header_file,
        "cert": cert_file,
        "url": to_query_form(bank_sata),
    }


# -- basic flows ---------------------------------------------------------------


def test_onion_parse_json(capsys):
    code, out, _ = run(capsys, "--json", "onion", "parse", FACEBOOK_LABEL)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["checksum_ok"] is True
    assert payload["version"] == 3


def test_onion_encode_keygen_roundtrip(capsys, tmp_path):
    seed = seed_for("cli-key").hex()
    code, out, _ = run(capsys, "--json", "onion", "keygen", "--seed", seed)
    assert code == EXIT_OK
    payload = json.loads(out)
    code, out, _ = run(capsys, "--json", "onion", "encode", payload["public_hex"])
    assert json.loads(out)["label"] == payload["onion_label"]


def test_sata_parse_and_render(capsys):
    url = f"https://selfauth.site/?onion={SELFAUTH_LABEL}"
    code, out, _ = run(capsys, "--json", "sata", "parse", url)
    assert code == EXIT_OK
    assert json.loads(out)["domain"] == "selfauth.site"
    code, out, _ = run(
        capsys,
        "--json",
        "sata",
        "render",
        "--domain",
        "selfauth.site",
        "--onion",
        SELFAUTH_LABEL,
        "--form",
        "query",
    )
    assert json.loads(out)["rendered"] == url


def test_sata_rewrite(capsys):
    code, out, _ = run(
        capsys, "--json", "sata", "rewrite", "www.cbc.ca.securedrop.tor.onion"
    )
    assert code == EXIT_OK
    assert json.loads(out)["base_domain"] == "www.cbc.ca"


def test_satt_self_and_verify_and_fresh(capsys, tmp_path, bank_files):
    out_file = tmp_path / "self.satt"
    code, out, _ = run(
        capsys,
        "satt",
        "self",
        "--key",
        str(bank_files["key"]),
        "--domain",
        "bank.example",
        "--fingerprint",
        "AB" * 32,
        "--issued",
        "2020-08-25",
        "--refreshed",
        "2020-08-31",
        "--rate",
        "7",
        "--out",
        str(out_file),
    )
    assert code == EXIT_OK
    assert out_file.exists()
    code, out, _ = run(capsys, "--json", "satt", "verify", "--file", str(out_file))
    assert code == EXIT_OK and json.loads(out)["ok"] is True
    code, out, _ = run(
        capsys, "--json", "satt", "fresh", "--file", str(out_file), "--now", "2020-09-01"
    )
    assert code == EXIT_OK and json.loads(out)["ok"] is True


def test_satt_issue_from_body_file(capsys, tmp_path):
    body = fig1_body()
    key = key_for("sattestora.info")
    key_file = tmp_path / "sattestor.key"
    key_file.write_text(key.secret.hex())
    from satakit.credential import _body_wire  # wire form without signature

    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(_body_wire(body)))
    code, out, _ = run(
        capsys, "satt", "issue", "--key", str(key_file), "--body", str(body_file)
    )
    assert code == EXIT_OK
    from satakit import from_transport_json, verify_credential

    verify_credential(from_transport_json(out.strip()))


def test_verify_accept(capsys, bank_files):
    code, out, _ = run(
        capsys,
        "--json",
        "verify",
        "--url",
        bank_files["url"],
        "--cert",
        str(bank_files["cert"]),
        "--header",
        str(bank_files["header"]),
        "--now",
        "2020-09-01",
    )
    assert code == EXIT_OK
    assert json.loads(out)["outcome"] == "accept"


def test_verify_verdict_exit_codes(capsys, tmp_path, bank_files, bank_cert):
    # stale: evaluate far in the future -> 67
    code, _, _ = run(
        capsys,
        "verify",
        "--url",
        bank_files["url"],
        "--cert",
        str(bank_files["cert"]),
        "--header",
        str(bank_files["header"]),
        "--now",
        "2020-10-01",
    )
    assert code == 67
    # SAN-free cert -> 69
    bare = tmp_path / "bare.json"
    bare.write_text(
        json.dumps(
            {
                "fingerprint": bank_cert.fingerprint,
                "san_list": ["unrelated.example"],
                "not_before": "2020-01-01",
                "not_after": "2021-01-01",
            }
        )
    )
    code, _, _ = run(
        capsys,
        "verify",
        "--url",
        bank_files["url"],
        "--cert",
        str(bare),
        "--header",
        str(bank_files["header"]),
        "--now",
        "2020-09-01",
    )
    assert code == 69
    # tampered header signature -> 66
    wire = json.loads(bank_files["header"].read_text())
    sig = wire["signature"]
    wire["signature"] = ("0" if sig[0] != "0" else "1") + sig[1:]
    tampered = tmp_path / "tampered.satt"
    tampered.write_text(json.dumps(wire))
    code, _, _ = run(
        capsys,
        "verify",
        "--url",
        bank_files["url"],
        "--cert",
        str(bank_files["cert"]),
        "--header",
        str(tampered),
        "--now",
        "2020-09-01",
    )
    assert code == 66
    # wrong fingerprint -> 68
    other = tmp_path / "othercert.json"
    other.write_text(
        json.dumps(
            {
                "fingerprint": "F" * 64,
                "san_list": list(bank_cert.san_list),
                "not_before": "2020-01-01",
                "not_after": "2021-01-01",
            }
        )
    )
    code, _, _ = run(
        capsys,
        "verify",
        "--url",
        bank_files["url"],
        "--cert",
        str(other),
        "--header",
        str(bank_files["header"]),
        "--now",
        "2020-09-01",
    )
    assert code == 68


def test_verify_reads_real_x509_pem(capsys, tmp_path, bank_sata, bank_key):
    from cryptography import x509
    from cryptography.hazmat.primitives import serialization
    from cryptography.x509.oid import NameOID
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from datetime import datetime, timezone

    signer = Ed25519PrivateKey.from_private_bytes(seed_for("ca"))
    names = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "bank.example")])
    cert = (
        x509.CertificateBuilder()
        .subject_name(names)
        .issuer_name(names)
        .public_key(signer.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(datetime(2020, 1, 1, tzinfo=timezone.utc))
        .not_valid_after(datetime(2021, 1, 1, tzinfo=timezone.utc))
        .add_extension(
            x509.SubjectAlternativeName(
                [x509.DNSName(name) for name in expected_sans(bank_sata)]
            ),
            critical=False,
        )
        .sign(signer, None)
    )
    pem = cert.public_bytes(serialization.Encoding.PEM)
    cert_file = tmp_path / "bank.pem"
    cert_file.write_bytes(pem)

    from satakit import fingerprint_cert, make_self_sattestation

    der = cert.public_bytes(serialization.Encoding.DER)
    header = make_self_sattestation(
        key=bank_key,
        domain="bank.example",
        cert_fingerprints=[fingerprint_cert(der)],
        issued=date(2020, 8, 31),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
    )
    header_file = tmp_path / "bank-pem.satt"
    header_file.write_text(to_transport_json(header))
    code, out, _ = run(
        capsys,
        "--json",
        "verify",
        "--url",
        to_query_form(bank_sata),
        "--cert",
        str(cert_file),
        "--header",
        str(header_file),
        "--now",
        "2020-09-01",
    )
    assert code == EXIT_OK, out
    assert json.loads(out)["outcome"] == "accept"


def test_trust_eval_and_rotate(capsys, tmp_path):
    from conftest import third_party

    root_key = key_for("root")
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(
        json.dumps(
            {
                "roots": [
                    {
                        "sattestor_domain": "root.example",
                        "sattestor_onion": root_key.address.label,
                        "trusted_labels": ["news"],
                    }
                ],
                "max_chain_depth": 3,
            }
        )
    )
    creds_dir = tmp_path / "creds"
    creds_dir.mkdir()
    cred = third_party("root.example", "root", [("paper.example", "paper", ["news"])])
    (creds_dir / "root.example-1.satt").write_text(to_transport_json(cred))
    subject = sata_for("paper.example", "paper")
    code, out, _ = run(
        capsys,
        "--json",
        "trust",
        "eval",
        "--policy",
        str(policy_file),
        "--creds",
        str(creds_dir),
        "--subject",
        to_query_form(subject),
        "--label",
        "news",
        "--now",
        "2020-09-01",
    )
    assert code == EXIT_OK
    assert json.loads(out)["trusted"] is True
    code, out, _ = run(
        capsys,
        "--json",
        "trust",
        "eval",
        "--policy",
        str(policy_file),
        "--creds",
        str(creds_dir),
        "--subject",
        to_query_form(subject),
        "--label",
        "bank",
        "--now",
        "2020-09-01",
    )
    assert code == EXIT_DATA
    assert json.loads(out)["trusted"] is False

    # rotation: only one direction present -> invalid
    old = sata_for("rotating.example", "rot-old")
    new = sata_for("rotating.example", "rot-new")
    rot_dir = tmp_path / "rot"
    rot_dir.mkdir()
    one_way = third_party(
        "rotating.example", "rot-old", [("rotating.example", "rot-new", ["successor"])]
    )
    (rot_dir / "rotating.example-1.satt").write_text(to_transport_json(one_way))
    code, out, _ = run(
        capsys,
        "--json",
        "rotate",
        "check",
        "--old",
        to_query_form(old),
        "--new",
        to_query_form(new),
        "--creds",
        str(rot_dir),
        "--now",
        "2020-09-01",
    )
    assert code == EXIT_DATA
    assert json.loads(out)["missing"] == ["new-to-old"]

    back = third_party(
        "rotating.example", "rot-new", [("rotating.example", "rot-old", ["predecessor"])]
    )
    (rot_dir / "rotating.example-2.satt").write_text(to_transport_json(back))
    code, out, _ = run(
        capsys,
        "--json",
        "rotate",
        "check",
        "--old",
        to_query_form(old),
        "--new",
        to_query_form(new),
        "--creds",
        str(rot_dir),
        "--now",
        "2020-09-01",
    )
    assert code == EXIT_OK


def test_rotate_pointer(capsys, tmp_path):
    old = sata_for("rotating.example", "rot-old")
    new = sata_for("rotating.example", "rot-new")
    key_file = tmp_path / "old.key"
    key_file.write_text(key_for("rot-old").secret.hex())
    code, out, _ = run(
        capsys,
        "rotate",
        "pointer",
        "--old",
        to_query_form(old),
        "--new",
        to_query_form(new),
        "--key",
        str(key_file),
        "--fingerprint",
        "AB" * 32,
        "--issued",
        "2020-08-31",
        "--refreshed",
        "2020-08-31",
        "--rate",
        "7",
    )
    assert code == EXIT_OK
    assert "sattestor({" in out


def test_sim_run_and_matrix(capsys, tmp_path):
    fixture = FIXTURES_DIR / "attack1_onion_alt_svc.json"
    code, out, _ = run(
        capsys, "--json", "sim", "run", "--fixture", str(fixture), "--browser", "legacy"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["steps"][-1]["reached_endpoint"] == "attacker-onion"

    out_file = tmp_path / "matrix.json"
    code, out, _ = run(
        capsys,
        "--json",
        "sim",
        "matrix",
        "--fixtures",
        str(FIXTURES_DIR),
        "--out",
        str(out_file),
    )
    assert code == EXIT_OK
    rows = json.loads(out_file.read_text())
    assert len(rows) >= 9


SIM_RUN_GOLDEN = json.loads((DATA_DIR / "sim_run_golden.json").read_text())


@pytest.mark.parametrize(
    "fixture,browser",
    [(f, b) for f, browsers in sorted(SIM_RUN_GOLDEN.items()) for b in sorted(browsers)],
)
def test_sim_run_matches_golden(capsys, fixture, browser):
    """``--json sim run`` output, verdict details and notes included, byte
    for byte as recorded in ``sim_run_golden.json``."""
    golden = SIM_RUN_GOLDEN[fixture][browser]
    code, out, _ = run(
        capsys, "--json", "sim", "run", "--fixture", str(DATA_DIR / fixture), "--browser", browser
    )
    assert (code, out) == (golden["exit"], golden["stdout"])


def test_json_output_stable_across_runs(capsys):
    _, out1, _ = run(capsys, "--json", "onion", "parse", FACEBOOK_LABEL)
    _, out2, _ = run(capsys, "--json", "onion", "parse", FACEBOOK_LABEL)
    assert out1 == out2


# -- exit code contract ------------------------------------------------------------


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["onion"])
    capsys.readouterr()
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        main(["--bogus-flag"])
    capsys.readouterr()
    assert err.value.code == EXIT_USAGE


# a command line per date option, the option's value left as {}
DATE_OPTIONS = {
    "verify --now": ["verify", "--url", "u", "--cert", "c", "--header", "h", "--now", "{}"],
    "trust eval --now": ["trust", "eval", "--policy", "p", "--creds", "d", "--subject", "s",
                         "--label", "l", "--now", "{}"],
    "satt fresh --now": ["satt", "fresh", "--file", "f", "--now", "{}"],
    "rotate check --now": ["rotate", "check", "--old", "o", "--new", "n", "--creds", "d",
                           "--now", "{}"],
    **{
        f"{command} {option}": [*command.split(), "--key", "k", "--issued", "2020-06-01",
                                "--refreshed", "2020-06-01", *extra, option, "{}"]
        for command, extra in (("satt self", ["--domain", "d"]),
                               ("rotate pointer", ["--old", "o", "--new", "n"]))
        for option in ("--issued", "--refreshed")
    },
}


@pytest.mark.parametrize("value", ["2020-W23-1", "20200601", "2020-06-01T00:00"])
@pytest.mark.parametrize("option", DATE_OPTIONS)
def test_a_date_option_takes_only_yyyy_mm_dd(capsys, option, value):
    # Python 3.11's date.fromisoformat reads the first two as 2020-06-01
    argv = [value if arg == "{}" else arg for arg in DATE_OPTIONS[option]]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert f"invalid iso_date value: {value!r}" in capsys.readouterr().err


def test_now_required_in_test_mode(capsys, monkeypatch, tmp_path, bank_files):
    monkeypatch.setenv("SATAKIT_TEST_MODE", "1")
    with pytest.raises(SystemExit) as err:
        main(["satt", "fresh", "--file", str(bank_files["header"])])
    capsys.readouterr()
    assert err.value.code == EXIT_USAGE


def test_io_error_exit_74(capsys, tmp_path):
    code, _, err = run(capsys, "satt", "verify", "--file", "/nonexistent/cred.satt")
    assert code == EXIT_IO
    # a --fixtures path that does not exist or names a file is no empty matrix
    (tmp_path / "fixture.json").write_text("{}")
    for fixtures in (tmp_path / "nonexistent", tmp_path / "fixture.json"):
        code, out, err = run(capsys, "--json", "sim", "matrix", "--fixtures", str(fixtures))
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith("i/o error: ")


@pytest.mark.parametrize("creds", ["missing", "file"])
@pytest.mark.parametrize("command", ["trust eval", "rotate check"])
def test_creds_that_is_not_a_directory_exit_74(capsys, tmp_path, command, creds):
    """A ``--creds`` path that does not exist or names a file is an I/O
    error, not an empty pool; an empty directory is an empty pool."""
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps({"roots": []}))
    subject = "https://a.example/?onion=" + key_for("a").address.label
    args = {
        "trust eval": ["trust", "eval", "--policy", str(policy_file), "--subject", subject,
                       "--label", "news"],
        "rotate check": ["rotate", "check", "--old", subject,
                         "--new", "https://a.example/?onion=" + key_for("b").address.label],
    }[command]
    paths = {"missing": tmp_path / "nonexistent", "file": policy_file}
    code, out, err = run(capsys, "--json", *args, "--creds", str(paths[creds]),
                         "--now", "2020-09-01")
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("i/o error: ")
    (tmp_path / "empty").mkdir()
    code, out, _ = run(capsys, "--json", *args, "--creds", str(tmp_path / "empty"),
                       "--now", "2020-09-01")
    assert code == EXIT_DATA
    assert json.loads(out) in (
        {"trusted": False}, {"ok": False, "missing": ["old-to-new", "new-to-old"]}
    )


def test_every_error_class_reachable(capsys, tmp_path, bank_files):
    """One CLI invocation per library error class; class name must be printed."""
    from satakit.credential import _body_wire

    wrong_key_file = tmp_path / "wrong.key"
    wrong_key_file.write_text(key_for("not-sattestora").secret.hex())
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(_body_wire(fig1_body())))

    bad_json_file = tmp_path / "bad.satt"
    bad_json_file.write_text("{broken")

    truncated_sig = tmp_path / "shortsig.satt"
    wire = json.loads(to_transport_json(paper_shaped_self_sattestation()))
    wire["signature"] = wire["signature"][:10]
    truncated_sig.write_text(json.dumps(wire))

    tampered = tmp_path / "tampered.satt"
    wire = json.loads(to_transport_json(paper_shaped_self_sattestation()))
    sig = wire["signature"]
    wire["signature"] = ("0" if sig[0] != "0" else "1") + sig[1:]
    tampered.write_text(json.dumps(wire))

    structural = tmp_path / "structural.satt"
    wire = json.loads(to_transport_json(paper_shaped_self_sattestation()))
    wire["sattestation"]["sattestees"][0]["domain"] = "someone-else.example"
    structural.write_text(json.dumps(wire))

    stale_file = bank_files["header"]

    empty_cert = tmp_path / "empty.pem"
    empty_cert.write_bytes(b"")

    empty_creds_dir = tmp_path / "empty-creds"
    empty_creds_dir.mkdir()

    unknown_host_fixture = tmp_path / "unknown.json"
    unknown_host_fixture.write_text(
        json.dumps(
            {
                "name": "unknown-host",
                "sites": {},
                "browsers": {"legacy": {}},
                "steps": [{"url": "https://missing.example/", "now": "2020-09-01"}],
            }
        )
    )

    bad_alo = "a" * 55 + "1"
    cases = [
        ("BadLength", ["onion", "parse", "abc"]),
        ("BadAlphabet", ["onion", "parse", bad_alo]),
        ("BadChecksum", ["onion", "parse", "a" * 56]),
        ("NotASata", ["sata", "parse", "https://example.com/"]),
        ("BadDomain", ["sata", "parse", "https://[zz]/?onion=" + "a" * 56]),
        ("BadDomain", ["sata", "parse", "https://[::1/"]),
        (
            "InvalidOnionComponent",
            ["sata", "parse", "https://x.example/?onion=" + "a" * 56],
        ),
        ("NotSecureDropName", ["sata", "rewrite", "www.cbc.ca"]),
        ("UnrepresentableField", ["satt", "verify", "--file", str(bad_json_file)]),
        ("MalformedSignature", ["satt", "verify", "--file", str(truncated_sig)]),
        ("BadSignature", ["satt", "verify", "--file", str(tampered)]),
        ("StructuralViolation", ["satt", "verify", "--file", str(structural)]),
        (
            "KeyMismatch",
            ["satt", "issue", "--key", str(wrong_key_file), "--body", str(body_file)],
        ),
        (
            "NoFingerprints",
            [
                "satt", "self", "--key", str(bank_files["key"]),
                "--domain", "bank.example",
                "--issued", "2020-08-25", "--refreshed", "2020-08-31",
            ],
        ),
        (
            "TooLarge",
            [
                "satt", "self", "--key", str(bank_files["key"]),
                "--domain", "bank.example",
                "--issued", "2020-08-25", "--refreshed", "2020-08-31",
            ]
            + [arg for i in range(40) for arg in ("--fingerprint", f"{i:02X}" * 32)],
        ),
        (
            "Stale",
            ["satt", "fresh", "--file", str(stale_file), "--now", "2020-12-01"],
        ),
        (
            "EmptyInput",
            [
                "verify", "--url", bank_files["url"],
                "--cert", str(empty_cert),
                "--header", str(bank_files["header"]),
                "--now", "2020-09-01",
            ],
        ),
        (
            "DomainMismatch",
            [
                "rotate", "check",
                "--old", "https://a.example/?onion=" + key_for("a").address.label,
                "--new", "https://b.example/?onion=" + key_for("b").address.label,
                "--creds", str(empty_creds_dir),
                "--now", "2020-09-01",
            ],
        ),
        (
            "UnknownHost",
            ["sim", "run", "--fixture", str(unknown_host_fixture), "--browser", "legacy"],
        ),
    ]
    for expected_class, argv in cases:
        code = main(["--json"] + argv)
        captured = capsys.readouterr()
        assert code == EXIT_DATA, f"{expected_class}: expected 65, got {code}"
        payload = json.loads(captured.out)
        assert payload["error"]["class"] == expected_class, (
            f"expected {expected_class}, got {payload['error']}"
        )


@pytest.mark.parametrize(
    "policy",
    [
        [1, 2],
        {"roots": "abc"},
        {"roots": [1]},
        {"roots": [{"sattestor_domain": "a.example"}]},
        {"roots": [{"sattestor_domain": 5, "sattestor_onion": "x"}]},
        {"max_chain_depth": "3"},
        {"max_chain_depth": True},
        {"require_sattestation_for": 5},
        {"require_sattestation_for": [5]},
        {"allow_credentialed_alt_services": "no"},
        {"max_chain_depth": 0},
        {"max_chain_depth": -1},
    ],
)
def test_bad_policy_json_exit_65(capsys, tmp_path, policy):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(policy))
    creds_dir = tmp_path / "creds"
    creds_dir.mkdir()
    argv = [
        "trust", "eval", "--policy", str(policy_file), "--creds", str(creds_dir),
        "--subject", "https://a.example/?onion=" + key_for("a").address.label,
        "--label", "news", "--now", "2020-09-01",
    ]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: UnrepresentableField: policy")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


@pytest.mark.parametrize(
    "change",
    [
        {"not_before": 5},
        {"not_after": None},
        {"not_before": "yesterday"},
        {"san_list": "bank.example"},
        {"san_list": [5]},
        {"has_sct": "yes"},
        {"fingerprint": 5},
        {"der_hex": "zz"},
        {"fingerprint": "zz"},
        {"fingerprint": "f" * 63},
    ],
)
def test_bad_cert_descriptor_exit_65(capsys, tmp_path, bank_files, change):
    descriptor = json.loads(bank_files["cert"].read_text())
    descriptor.update(change)
    descriptor = {k: v for k, v in descriptor.items() if v is not None}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(descriptor))
    argv = ["verify", "--url", bank_files["url"], "--cert", str(cert_file),
            "--header", str(bank_files["header"]), "--now", "2020-09-01"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: UnrepresentableField: certificate")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


@pytest.mark.parametrize("index", ["9", "-1"])
def test_binding_index_out_of_range_exit_65(capsys, index):
    argv = ["satt", "fresh", "--file", str(DATA_DIR / "fig1_credential.satt"),
            "--binding", index, "--now", "2020-09-01"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err == f"error: NoSuchBinding: binding index {index} out of range\n"
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "NoSuchBinding"


def test_bad_version_reachable(capsys):
    import base64
    import hashlib

    pubkey = bytes(range(32))
    checksum = hashlib.sha3_256(b".onion checksum" + pubkey + b"\x02").digest()[:2]
    label = base64.b32encode(pubkey + checksum + b"\x02").decode().lower()
    code, out, _ = run(capsys, "--json", "onion", "parse", label)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "BadVersion"


def _der_with_repeated_san() -> bytes:
    """A DER certificate that loads but carries the SAN extension twice."""
    from datetime import datetime, timezone

    from cryptography import x509
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from cryptography.x509.oid import NameOID

    signer = Ed25519PrivateKey.from_private_bytes(seed_for("ca"))
    names = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "bank.example")])
    san = x509.SubjectAlternativeName([x509.DNSName("bank.example")])
    placeholder = x509.ObjectIdentifier("2.5.29.99")  # DER 06 03 55 1d 63; SAN is ...1d 11
    der = (
        x509.CertificateBuilder()
        .subject_name(names)
        .issuer_name(names)
        .public_key(signer.public_key())
        .serial_number(1)
        .not_valid_before(datetime(2020, 1, 1, tzinfo=timezone.utc))
        .not_valid_after(datetime(2021, 1, 1, tzinfo=timezone.utc))
        .add_extension(san, critical=False)
        .add_extension(x509.UnrecognizedExtension(placeholder, san.public_bytes()), critical=False)
        .sign(signer, None)
        .public_bytes(serialization.Encoding.DER)
    )
    assert der.count(b"\x06\x03\x55\x1d\x63") == 1
    return der.replace(b"\x06\x03\x55\x1d\x63", b"\x06\x03\x55\x1d\x11")


@pytest.mark.parametrize(
    "contents",
    [
        b"[[[",
        b"-----BEGIN CERTIFICATE-----\nnot base64 at all!\n-----END CERTIFICATE-----\n",
        _der_with_repeated_san(),
    ],
    ids=["not-a-certificate", "pem-over-garbage", "repeated-extension"],
)
def test_unreadable_x509_cert_exit_65(capsys, tmp_path, bank_files, contents):
    cert_file = tmp_path / "cert.pem"
    cert_file.write_bytes(contents)
    argv = ["verify", "--url", bank_files["url"], "--cert", str(cert_file),
            "--header", str(bank_files["header"]), "--now", "2020-09-01"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: UnrepresentableField: certificate is not a well-formed"), err
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


@pytest.mark.parametrize(
    "contents", [b"not hex\n", b"\xff\xfe" * 32], ids=["not-hex", "not-ascii"]
)
def test_unreadable_key_file_exit_65(capsys, tmp_path, contents):
    key_file = tmp_path / "site.key"
    key_file.write_bytes(contents)
    argv = ["satt", "self", "--key", str(key_file), "--domain", "bank.example",
            "--fingerprint", "AB" * 32, "--issued", "2020-08-25", "--refreshed", "2020-08-31"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith(f"error: UnrepresentableField: key file {str(key_file)!r} is not hex")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


@pytest.mark.parametrize(
    "argv",
    [["onion", "encode", "zz"], ["onion", "keygen", "--seed", "zz"]],
    ids=["encode", "keygen"],
)
def test_non_hex_argument_exit_65(capsys, argv):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


def _attack1(path: tuple = (), *value) -> dict:
    """The attack-1 fixture, with the field at ``path`` set to ``value`` or,
    given no value, deleted."""
    fixture = json.loads((FIXTURES_DIR / "attack1_onion_alt_svc.json").read_text())
    node = fixture
    for step in path[:-1]:
        node = node[step]
    if value:
        node[path[-1]] = value[0]
    elif path:
        del node[path[-1]]
    return fixture


@pytest.mark.parametrize(
    "fixture",
    [
        [1, 2],
        {"keys": {"a": 5}},
        {"keys": ["a"]},
        {"keys": {"a": "zz"}},
        {"certs": 5},
        {"certs": {"c": 5}},
        {"credentials": {"c": 5}},
        {"credentials": []},
        {"sites": {"x": 5}},
        {"steps": [5]},
        {"steps": {"url": "https://a.example/"}},
        {"browsers": {"b": 5}},
        {"attacker": []},
        {"attacker": {"dns_hijack": [{}]}},
        {"he_rules": {"a.example": 5}},
        {"he_rules": ["a.example"]},
        {"name": 5},
        _attack1(("credentials", "victim-self", "key")),
        _attack1(("credentials", "victim-self", "key"), "nobody"),
        _attack1(("credentials", "root-about-victim", "bindings", 0, "issued"), "2020-13-01"),
        _attack1(("certs", "victim-cert", "sans"), ["{sata_sans:victim.example}"]),
        _attack1(("sites", "victim.example", "alt_svc", "host"), "{onion:attacker.onion"),
        _attack1(("browsers", "sata-policy", "policy", "roots", 0, "key"), 5),
        _attack1(("steps", 0, "sites"), {"victim.example": 5}),
    ],
)
@pytest.mark.parametrize("command", ["run", "matrix"])
def test_bad_fixture_json_exit_65(capsys, tmp_path, fixture, command):
    (tmp_path / "bad.json").write_text(json.dumps(fixture))
    if command == "run":
        argv = ["sim", "run", "--fixture", str(tmp_path / "bad.json"), "--browser", "legacy"]
    else:
        argv = ["sim", "matrix", "--fixtures", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: UnrepresentableField: fixture"), err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.sampled_from(["2020-09-01", "{onion:victim}", "victim-cert", "victim", "news"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _edit_one_field(draw, document):
    """``document`` with one field at any depth replaced by arbitrary JSON
    or deleted."""
    node = document
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        step = draw(st.sampled_from(keys))
        child = node[step]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            break
        node = child
    if isinstance(node, dict) and draw(st.booleans()):
        del node[step]
    else:
        node[step] = draw(_JSON)
    return document


@st.composite
def _fixtures(draw):
    """Arbitrary JSON, or the attack-1 fixture with one field at any depth
    replaced by arbitrary JSON or deleted."""
    if draw(st.booleans()):
        return draw(_JSON)
    return _edit_one_field(draw, _attack1())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fixture=_fixtures(), browser=st.sampled_from(["legacy", "sata-aware", "sata-policy"]))
def test_any_fixture_json_ends_in_an_exit_code_not_a_traceback(tmp_path_factory, fixture, browser):
    path = tmp_path_factory.mktemp("fixture") / "f.json"
    path.write_text(json.dumps(fixture))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["sim", "run", "--fixture", str(path), "--browser", browser])
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in {0, 64, 65, 66, 67, 68, 69, 74}, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# -- every JSON file the CLI reads ------------------------------------------------

BANK = sata_for("bank.example")
BANK_CERT = cert_for("bank-primary", expected_sans(BANK), has_sct=True)


def _valid_inputs() -> dict[str, str]:
    """A well-formed file for each option that names a JSON file."""
    from satakit.credential import _body_wire  # wire form without signature

    header = make_self_sattestation(
        key=key_for("bank.example"),
        domain="bank.example",
        cert_fingerprints=[BANK_CERT.fingerprint],
        issued=date(2020, 8, 25),
        refreshed_on=date(2020, 8, 31),
        refresh_rate_days=7,
        labels=["bank"],
    )
    root = {
        "sattestor_domain": "root.example",
        "sattestor_onion": key_for("root").address.label,
        "trusted_labels": ["news"],
    }
    return {
        "--cert": json.dumps(
            {
                "fingerprint": BANK_CERT.fingerprint,
                "san_list": list(BANK_CERT.san_list),
                "not_before": "2020-01-01",
                "not_after": "2021-01-01",
                "has_sct": True,
            }
        ),
        "--header": to_transport_json(header),
        "--policy": json.dumps({"roots": [root], "max_chain_depth": 3}),
        "--creds": to_transport_json(
            third_party("root.example", "root", [("paper.example", "paper", ["news"])])
        ),
        "--body": json.dumps(_body_wire(fig1_body())),
    }


VALID_INPUTS = _valid_inputs()


def _boundary_argv(directory, option: str, contents: bytes) -> list[str]:
    """A command reading the file of ``option``, which holds ``contents``;
    every other file it reads is well formed.  ``--creds`` names a
    directory holding the one ``.satt`` file."""
    (directory / "creds").mkdir(exist_ok=True)
    names = {
        "--cert": "cert.json",
        "--header": "header.satt",
        "--policy": "policy.json",
        "--creds": "creds/one.satt",
        "--body": "body.json",
    }
    paths = {opt: str(directory / name) for opt, name in names.items()}
    for opt, text in VALID_INPUTS.items():
        (directory / names[opt]).write_bytes(contents if opt == option else text.encode())
    if option in ("--cert", "--header"):
        return ["verify", "--url", to_query_form(BANK), "--cert", paths["--cert"],
                "--header", paths["--header"], "--now", "2020-09-01"]
    if option in ("--policy", "--creds"):
        return ["trust", "eval", "--policy", paths["--policy"], "--creds", str(directory / "creds"),
                "--subject", to_query_form(sata_for("paper.example", "paper")),
                "--label", "news", "--now", "2020-09-01"]
    key_file = directory / "sattestor.key"
    key_file.write_text(key_for("sattestora.info").secret.hex())
    return ["satt", "issue", "--key", str(key_file), "--body", paths["--body"]]


def _main_in_process(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


def test_each_well_formed_input_is_accepted(tmp_path):
    """The base every generated file is edited from runs clean."""
    for option, text in VALID_INPUTS.items():
        assert _main_in_process(_boundary_argv(tmp_path, option, text.encode())) == (EXIT_OK, "")


@st.composite
def _file_contents(draw, valid: str) -> bytes:
    """Arbitrary bytes, text or JSON, or ``valid`` with one character
    edited or one JSON field at any depth replaced or deleted."""
    kind = draw(st.sampled_from(["bytes", "text", "json", "character", "field"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "text":
        return draw(st.text(max_size=64)).encode()
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    if kind == "character":
        at = draw(st.integers(0, len(valid)))
        cut = at + draw(st.integers(0, 1))
        return (valid[:at] + draw(st.text(max_size=2)) + valid[cut:]).encode()
    return json.dumps(_edit_one_field(draw, json.loads(valid))).encode()


@st.composite
def _boundary_inputs(draw):
    option = draw(st.sampled_from(sorted(VALID_INPUTS)))
    return option, draw(_file_contents(VALID_INPUTS[option]))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=_boundary_inputs())
def test_any_json_file_contents_end_in_an_exit_code_not_a_traceback(tmp_path_factory, case):
    option, contents = case
    argv = _boundary_argv(tmp_path_factory.mktemp("boundary"), option, contents)
    code, err = _main_in_process(argv)
    assert code in {0, 64, 65, 66, 67, 68, 69, 74}, (code, err)
    assert "Traceback" not in err


DEEP = "[" * 100_000
HUGE_NUMBER = "1" * 5000


@pytest.mark.parametrize("option", sorted(VALID_INPUTS))
@pytest.mark.parametrize(
    "contents", ["{not json", DEEP, HUGE_NUMBER], ids=["malformed", "deep", "huge-number"]
)
def test_unparseable_json_file_exit_65(capsys, tmp_path, option, contents):
    if option == "--cert":  # a certificate file is JSON only when it starts with "{"
        contents = '{"not_before": ' + contents + "}"
    argv = _boundary_argv(tmp_path, option, contents.encode())
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: UnrepresentableField: "), err
    assert "is not valid JSON" in err
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"


@pytest.mark.parametrize(
    "edit,detail",
    [
        # both verified while the signature covered only the parser's re-encoding
        (lambda text: text[:-1] + text[text.index(',"signature"'):], "repeated key 'signature'"),
        (lambda text: text.replace('"issued":"2020-08-25"', '"issued":"20200825"'), "'issued'"),
    ],
    ids=["repeated-signature-key", "compact-date"],
)
def test_repeated_key_or_compact_date_exit_65(capsys, tmp_path, edit, detail):
    text = VALID_INPUTS["--header"]
    edited = edit(text)
    assert edited != text
    (tmp_path / "header.satt").write_text(edited)
    argv = ["satt", "verify", "--file", str(tmp_path / "header.satt")]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert err.startswith("error: UnrepresentableField: credential"), err
    assert detail in err
    code, out, _ = run(capsys, "--json", *argv)
    assert code == EXIT_DATA
    assert json.loads(out)["error"]["class"] == "UnrepresentableField"
