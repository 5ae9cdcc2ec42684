"""CLI exit codes and output determinism."""

import json

import pytest

from glgeom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_proj_all_agree(capsys):
    code, out, _ = run(capsys, "proj-collinear", "--n", "4", "--m", "2",
                       "--k", "2", "--j", "1", "--q", "2", "--mode", "all")
    assert code == 0
    assert "complete" in out


def test_proj_incomplete(capsys):
    code, out, _ = run(capsys, "proj-collinear", "--n", "6", "--m", "3",
                       "--k", "3", "--j", "2", "--q", "2", "--mode", "all")
    assert code == 0  # all three agree on "incomplete"
    assert "incomplete" in out


def test_bad_params_exit_code(capsys):
    code, _, err = run(capsys, "proj-collinear", "--n", "4", "--m", "2",
                       "--k", "2", "--j", "3", "--q", "2")
    assert code == 1
    assert "bad parameters" in err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["proj-collinear", "--n", "4", "--m", "2", "--k", "2",
              "--j", "1", "--q", "2", "--seed", "1"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_budget_exit_code(capsys, monkeypatch):
    """Points the witness cannot decide must scan; past --budget they exit
    3 before the scan lists a single subspace."""
    import glgeom.oracle as oc

    def listed(*args):
        raise AssertionError("scan listed subspaces despite the budget")
    monkeypatch.setattr(oc, "grassmannian_index", listed)
    monkeypatch.setattr(oc, "schubert_cell", listed)
    code, out, err = run(capsys, "bis-collinear", "--k", "3", "--m", "3",
                         "--k1", "0", "--k2", "3", "--q", "3",
                         "--mode", "oracle", "--budget", "10")
    assert code == 3 and out == "" and "19684 3-subspaces" in err
    code, out, err = run(capsys, "proj-collinear", "--n", "6", "--m", "3",
                         "--k", "3", "--j", "2", "--q", "2",
                         "--mode", "oracle", "--budget", "10")
    assert code == 3 and out == ""


def test_witnessed_point_is_not_refused(capsys):
    """The witness decides every overlap here, so nothing is scanned and
    the 333,430,020 bisections of V(6,3) are no reason to refuse."""
    code, out, _ = run(capsys, "bis-collinear", "--k", "3", "--m", "3",
                       "--k1", "0", "--k2", "0", "--q", "3",
                       "--mode", "oracle", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == {"oracle": "complete"}


def test_witness_at_the_largest_dense_table_field(capsys):
    """GF(1024), the largest field that once had q x q tables, builds its
    O(q) exp/log and Zech tables in well under a second, so the witness
    route runs at the CLI edge."""
    code, out, _ = run(capsys, "proj-collinear", "--q", "1024", "--n", "4",
                       "--m", "2", "--k", "2", "--j", "1",
                       "--mode", "witness", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == {"witness": "complete"}


def test_bis_examples(capsys):
    code, out, _ = run(capsys, "bis-collinear", "--k", "1", "--m", "1",
                       "--k1", "0", "--k2", "0", "--q", "2")
    assert code == 0 and "incomplete" in out
    code, out, _ = run(capsys, "bis-concurrent", "--k", "2", "--m", "2",
                       "--k1", "0", "--k2", "0", "--q", "3")
    assert code == 0 and "complete" in out
    code, out, _ = run(capsys, "bis-concurrent", "--k", "1", "--m", "1",
                       "--k1", "0", "--k2", "1", "--q", "2")
    assert code == 0 and "complete" in out


def test_unresolved_label(capsys):
    code, out, _ = run(capsys, "bis-concurrent", "--k", "2", "--m", "2",
                       "--k1", "0", "--k2", "1", "--q", "3",
                       "--mode", "predicate")
    assert code == 0
    assert "unresolved(paper)" in out


@pytest.mark.parametrize("q", [4, 5, 7, 8])
@pytest.mark.parametrize("k1,verdict", [(0, "complete"), (1, "incomplete")])
def test_concurrent_data_beyond_the_closed_forms(capsys, q, k1, verdict):
    """Observed data, not reproduced theorems: at k = m = 2 the closed
    forms leave (k1, k2) = (0, 1) and (1, 1) unresolved, and the orbit
    oracle reads complete and incomplete at q = 4, 5, 7 and 8."""
    code, out, _ = run(capsys, "bis-concurrent", "--k", "2", "--m", "2",
                       "--k1", str(k1), "--k2", "1", "--q", str(q),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"] == {"oracle": verdict,
                                          "predicate": "unresolved(paper)"}


def test_json_determinism(capsys):
    args = ("bis-concurrent", "--k", "2", "--m", "2", "--k1", "0",
            "--k2", "0", "--q", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "glgeom/1"


def test_scan_families(capsys):
    code, out, _ = run(capsys, "scan", "--family", "proj", "--max-n", "4",
                       "--qs", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["mismatches"] == 0
    code, out, _ = run(capsys, "scan", "--family", "sn", "--max-n", "8")
    assert code == 0
    code, out, _ = run(capsys, "scan", "--family", "bis-col", "--max-k", "2",
                       "--qs", "2")
    assert code == 0
    code, out, _ = run(capsys, "scan", "--family", "bis-con", "--max-k", "2",
                       "--qs", "2,3")
    assert code == 0


def test_orbits_golden(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "3", "--k", "2", "--golden")
    assert code == 0
    assert "match" in out and "15" in out


def test_orbits_small(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "2", "--k", "1")
    assert code == 0
    assert "num_orbits: 1" in out  # single swap orbit on the other two


def test_orbits_budget_exit_code(capsys):
    """Refused up front: (3,3) has 333,430,020 bisections, over the default."""
    code, out, err = run(capsys, "orbits", "--q", "3", "--k", "3")
    assert code == 3 and out == "" and "333430020" in err
    code, _, _ = run(capsys, "orbits", "--q", "2", "--k", "3",
                     "--budget", "1000")
    assert code == 3


def test_counts_and_weyl(capsys):
    code, out, _ = run(capsys, "counts", "--q", "3", "--k", "2", "--m", "2")
    assert code == 0 and "24/65" in out
    # at m = 1 (a = 2 <= k) the payload carries the lower bound on H
    code, out, _ = run(capsys, "counts", "--q", "3", "--k", "2", "--m", "1",
                       "--format", "json")
    assert code == 0 and out == (
        '{"F(a,k,q)": "8/9 ~ 0.888889", "H(a,k,q)": "4/5 ~ 0.800000", '
        '"H_lower_bound": "53/84 ~ 0.630952", "a": 2, '
        '"bisections(2k,k,q)": "5265", "gaussian(2k,m,q)": "40", '
        '"more_than_half": true, "schema": "glgeom/1"}\n')
    code, out, _ = run(capsys, "weyl", "--n", "4", "--m", "2", "--k", "2",
                       "--j", "1")
    assert code == 0 and "complete" in out


@pytest.fixture
def int_str_limit():
    """Python's default limit of 4300 digits for printing an integer, set
    for the test and restored after it; skipped before Python 3.10.7."""
    import sys
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no limit on printing an integer")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_counts_refused_before_a_count_python_cannot_print(
        capsys, monkeypatch, int_str_limit):
    """bisections(2k,k,2) has 4,249 digits at k = 84 and 4,351 at k = 85:
    k = 84 prints the same bytes as before the check, and k = 85 (or
    q = 65536 at k = 40) exits 3 with empty stdout before any count or
    Fraction is built; a bad m is still refused first, as m."""
    import hashlib
    import time

    import glgeom.counts as ct
    code, out, _ = run(capsys, "counts", "--q", "2", "--k", "84", "--m", "1")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "b6d984db81b6c51c23aeb844473128ad8f003e58bf1cfda46d263a812837a5f0")

    def built(*args):
        raise AssertionError("a count was built before the refusal")
    for name in ("gaussian", "bisection_count", "f_value", "h_value",
                 "restricted_movement_sufficient"):
        monkeypatch.setattr(ct, name, built)
    for q, k in (("2", "85"), ("65536", "40"), ("2", "5000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "counts", "--q", q, "--k", k,
                             "--m", "1")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "") and err.startswith(
            "budget exceeded: the counts at k = "), err
    code, out, err = run(capsys, "counts", "--q", "2", "--k", "5000",
                         "--m", "0")
    assert (code, out) == (1, "")
    assert err == "bad parameters: need 1 <= m <= k\n"


def test_counts_refuse_nothing_without_a_digit_limit(monkeypatch,
                                                       int_str_limit):
    """Where Python has no limit, at 0 or where sys has no
    get_int_max_str_digits (before Python 3.10.7), the refusal follows
    its default of 4300 digits, so k = 85 is refused as at that default;
    a limit raised above it admits more."""
    import sys

    import glgeom.counts as ct
    sys.set_int_max_str_digits(4400)
    ct.check_printable(85, 2)
    for limit in (4300, 0, None):
        if limit is None:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        else:
            monkeypatch.setattr(sys, "get_int_max_str_digits",
                                lambda: limit)
        with pytest.raises(ct.TooLargeError):
            ct.check_printable(85, 2)
        with pytest.raises(ct.TooLargeError):
            ct.check_printable(5000, 65536)
        ct.check_printable(84, 2)


def test_sn_scan_refused_before_its_first_row(capsys, monkeypatch):
    """scan --family sn checks --max-n against the subset oracle's bound
    before it computes a row, so --max-n 15 exits 3 with empty stdout and
    no pair cover run."""
    import glgeom.weyl as wy

    def covered(*args):
        raise AssertionError("a row was computed before the refusal")
    monkeypatch.setattr(wy, "subset_pair_cover", covered)
    code, out, err = run(capsys, "scan", "--family", "sn", "--max-n", "15")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: subset oracle limited to n <= 14\n"


def test_golden_missing_exit_code(capsys):
    """Exit 1 where no multiset is stored: nothing to compare against."""
    code, out, _ = run(capsys, "orbits", "--q", "5", "--k", "1", "--golden")
    assert code == 1
    assert "golden: no stored values for these parameters" in out


def test_golden_mismatch_exit_code(capsys, monkeypatch):
    """Exit 2 when a recomputation disagrees with the stored multiset."""
    import glgeom.orbits as ob
    tampered = dict(ob.GOLDEN_ORBITS)
    tampered[(3, 2)] = {24: 2}
    monkeypatch.setattr(ob, "GOLDEN_ORBITS", tampered)
    code, out, _ = run(capsys, "orbits", "--q", "3", "--k", "2", "--golden")
    assert code == 2
    assert "MISMATCH" in out


def test_bis_concurrent_budget_refused_before_orbits(capsys, monkeypatch):
    """--budget reaches the orbit partition at (q,k) = (2,3), which refuses
    before it lists the 1395 3-subspaces of V(6,2)."""
    import glgeom.orbits as ob
    real = ob.grassmannian_index

    def not_at_k3(n, field, m):
        assert (n, field.q, m) != (6, 2, 3), "orbit partition at (2,3) listed"
        return real(n, field, m)
    monkeypatch.setattr(ob, "grassmannian_index", not_at_k3)
    code, out, err = run(capsys, "bis-concurrent", "--k", "3", "--m", "3",
                         "--k1", "0", "--k2", "0", "--q", "2",
                         "--budget", "10")
    assert code == 3 and out == "" and "357120" in err
    # (2,1) and (2,2) fit the budget; (2,3) has 357,120 bisections
    code, out, err = run(capsys, "scan", "--family", "bis-con", "--max-k",
                         "3", "--qs", "2", "--budget", "100000")
    assert code == 3 and out == "" and "357120" in err


def test_bis_concurrent_refusal_is_the_orbit_routes(capsys):
    """No gate on gaussian(2k,k,q) picks the route: at (q,k) = (7,2) the
    orbit partition's own budget refuses the 3,421,425 bisections."""
    code, out, err = run(capsys, "bis-concurrent", "--k", "2", "--m", "2",
                         "--k1", "1", "--k2", "1", "--q", "7",
                         "--budget", "1000")
    assert code == 3 and out == ""
    assert "bisections of V(4,7) exceed the budget" in err


def test_bis_con_scan_digest(capsys):
    """sha256 of the scan's --format json output, pinned from the release
    that ran the concurrent oracle over all pairs of bisections at k = 1:
    30 points, 10 of them at k = 1, now all on orbit representatives."""
    import hashlib
    code, out, _ = run(capsys, "scan", "--family", "bis-con", "--max-k", "2",
                       "--qs", "2,3,4,5,7", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0c5778f052aeb0a99803b9410f7b1b7487f701c9a0134271e554e5b5a7dd7aff")
    rows = json.loads(out)["rows"]
    assert len(rows) == 30 and sum(r["k"] == 1 for r in rows) == 10


def test_proj_scan_digest(capsys):
    """sha256 of the proj scan's --format json output at n <= 6, q = 2, 3,
    pinned from the release whose oracle met U2 by a rank per line (now
    range_meet_dim on U2's columns)."""
    import hashlib
    code, out, _ = run(capsys, "scan", "--family", "proj", "--max-n", "6",
                       "--qs", "2,3", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fcc7030f1926cd86c779bb271b90988c9d24c7bc21596d7ecc0d1c16e9280f3b")


@pytest.mark.parametrize("argv, digest", [
    ("--max-n 9 --qs 3",
     "48cf96e031f5aeba669b68715dcda513b3d10d3f2bc5723d51a8b92a61ef6cb3"),
    ("--max-n 10 --qs 2",
     "ae142e0458ff3b442cbb5f6843010a6337f98aeead65dcfd28d7c7fab0a14d66"),
], ids=["n9-q3", "n10-q2"])
def test_larger_proj_scan_digests(capsys, argv, digest):
    """sha256 of the proj scan's --format json output at n <= 9 over GF(3)
    and n <= 10 over GF(2), pinned while the search still listed every
    cell with j pivots in U1's columns (5.6 s and 2.1 s then); skipping
    the cells that cannot meet U2 in j dimensions made them cheap."""
    import hashlib
    code, out, _ = run(capsys, "scan", "--family", "proj", *argv.split(),
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("scan --family bis-col --max-k 3 --qs 2,3",
     "86b231367a1a66edd9c6661cb37b715011ea3b37f622e771f55c7e8a3cbe1ee5"),
    ("scan --family sn --max-n 12",
     "511b7de02a198ab61044e303cc9b5337c3e45cd297a820682b189110549bfabc"),
], ids=["bis-col", "sn"])
def test_scan_digest(capsys, argv, digest):
    """sha256 of the --format json output of the bis-col scan (56 points)
    and the sn scan (817 points), pinned before the verbs shared one
    route runner."""
    import hashlib
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bis_col_scan_to_k4_digest(capsys):
    """sha256 of the bis-col scan's --format json output at k <= 4 over
    GF(2): 61 points, 33 of them at k = 4, none refused.  The pair scan
    that the scan of the points on one line replaced refused (4,4,0,4)."""
    import hashlib
    code, out, _ = run(capsys, "scan", "--family", "bis-col", "--max-k", "4",
                       "--qs", "2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1420db196f1411dc0a04f02c077129870d933da0ccf410cf0de144a127af7a7c")
    data = json.loads(out)
    assert (data["points"], data["mismatches"]) == (61, 0)


def test_bis_search_short_listing_exits_4(capsys, monkeypatch):
    """A listing one point short of the cell total is an internal error
    (exit 4, empty stdout), not an incomplete verdict."""
    import glgeom.oracle as oc
    real = oc.grassmannian_index

    def short(*args):
        codes, masks = real(*args)
        return codes[:-1], masks[:-1]
    monkeypatch.setattr(oc, "grassmannian_index", short)
    code, out, err = run(capsys, "bis-collinear", "--k", "2", "--m", "2",
                         "--k1", "0", "--k2", "2", "--q", "3",
                         "--mode", "oracle")
    assert (code, out) == (4, "")
    assert "internal error: listed 81 2-subspaces" in err


VERDICT_DIGESTS = {
    "proj-collinear --n 4 --m 2 --k 2 --j 1 --q 2": (
        "5a45e41c32fb17a36041d6bd809c4ece19a10f1728c09d2a92e90e92947f12ed",
        "bec855943c8df90d4ef93f8e4f2ede4b598c2cbd36eeb099c766c1ea2c5903f5"),
    "proj-collinear --n 4 --m 2 --k 2 --j 1 --q 2 --mode predicate": (
        "0310e3d9c3dcae507850c2e1bbe6a5caea566037471149a339e033c8e293ef43",
        "b21bfaf863545b51bf3d45b741a8d926b236b53ed8c3f61cccd31ce36653b01e"),
    "proj-collinear --n 4 --m 2 --k 2 --j 1 --q 2 --mode witness": (
        "41ae1df4d9d5dfcad0b7f5c5e3b98483a106e50f0cee0307dce88d21ad161e6c",
        "b931ebe310e700035c59abcb9483d818f5e23da279cdb00dfb75ecc7857e1f8b"),
    "proj-collinear --n 5 --m 2 --k 3 --j 1 --q 3 --certificate": (
        "a4cfcb7634c8ec47857a704e6591ce3631b905e1a487c9d4e35398a51c50ac97",
        "208cf385d67c11600cea51aba5b22c37cfdc494f10a89c98aae1e9311665f039"),
    "proj-collinear --n 6 --m 3 --k 3 --j 2 --q 2 --certificate": (
        "8782f45c5e156e8cd5abf3e432ea7ca74d44fc5c5c664d36ae0c45354c12528d",
        "5786d534cf6ab434ce698f55a060dff5da0ed83440dd26f0aa6aab4ce72a5a8c"),
    "proj-collinear --n 6 --m 3 --k 3 --j 2 --q 2 --mode oracle": (
        "430bdaa159decf0cb5152933596bdd8981252a329e98ad283525cef7a037b707",
        "74806176101d30c804478b8faf9b9f3a42dfbe90214f486b56f125c3a651cb9a"),
    "bis-collinear --k 1 --m 1 --k1 0 --k2 0 --q 2": (
        "8df6456c8533a49b3512727d898c71e14a8e3617f915a3e39b0a41eb0f568e3e",
        "90d9059e04be7543ea834d8831256cfafc80aeaa867a73e4126a8130ad3878e7"),
    "bis-collinear --k 2 --m 2 --k1 0 --k2 1 --q 2 --certificate": (
        "b5177aed962546417c70aaec5d7734c6c7793f5df97a81de6ed323cddda7bac7",
        "6492b023da902a8569c887af6da48c75c87ff91123faf25a6ed79513f16b06dc"),
    "bis-collinear --k 2 --m 3 --k1 1 --k2 1 --q 2 --mode oracle": (
        "f48ed9994cf7540c95c1554a2dc144dcf91a478917177c7b75acd77a936b825c",
        "bf623498ae1a68f4110eb6dbacc14e7ce0126c9807faca5bc692b21ffe5db95a"),
    "bis-collinear --k 3 --m 4 --k1 1 --k2 2 --q 3 --certificate": (
        "34ae5aedf548d3aa8ce8b977aa3ca8bfd127a4056d48feac1c4b2f2020dc735e",
        "8bed5eee4791f6d16163d7bb65cb676802106fb3c68f52a0f64bf95dfb8d6328"),
    "bis-concurrent --k 2 --m 2 --k1 0 --k2 0 --q 3": (
        "49376a67593a84181095a69f6fb0b7f127173f149f1b10a45bf20caeda826480",
        "4f5b867bca9057bea56b9c638dd5db13d1add4a1ef719833f66d0d3d7cd56383"),
    "bis-concurrent --k 2 --m 2 --k1 0 --k2 1 --q 3": (
        "ed146a300735d1931f4594fad26acc97947fd68157ff95e9869fc42f4f28e587",
        "14916e58bf8abc0da0b2269f43b4797bdd9b7cf6aa4d1fc4829b315a1b635746"),
    "bis-concurrent --k 2 --m 2 --k1 0 --k2 1 --q 3 --mode predicate": (
        "6b679c3b79e949cd72047d90be287edae91f79f1a594ec9808ed99b501ed777b",
        "e1f72120064685d5b60db11dd781a250514c5d7944b712264c6c73ad2b11b2b2"),
    "bis-concurrent --k 2 --m 3 --k1 1 --k2 2 --q 2": (
        "cc692f243adc059389af8943e8e1f27f83ac36a0be08db784ca587643127e1c4",
        "745bb4704842bfcdf1a044a5625f523b3429a7c12896b51faeba5826686da228"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", list(VERDICT_DIGESTS))
def test_verdict_output_pinned(capsys, argv, fmt):
    """sha256 of the verdict verbs' stdout, each exiting 0: every mode,
    failing_t, certificates (at (k,m,k1,k2) = (3,4,1,2), of the dual
    geometry) and none when the witness fails, an unresolved(paper) row,
    and the perp reduction at m > k."""
    import hashlib
    code, out, err = run(capsys, *argv.split(), "--format", fmt)
    assert code == 0 and err == ""
    digest = VERDICT_DIGESTS[argv][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, predicate, word", [
    ("proj-collinear --n 4 --m 2 --k 2 --j 1 --q 2",
     "proj_collinear_predicate", False),
    ("bis-collinear --k 2 --m 2 --k1 0 --k2 1 --q 2",
     "bis_collinear_predicate", False),
    ("bis-concurrent --k 2 --m 2 --k1 0 --k2 0 --q 3",
     "bis_concurrent_predicate", "incomplete"),
])
def test_routes_that_disagree_exit_2(capsys, monkeypatch, argv, predicate,
                                     word):
    """A closed form that reads incomplete where the other routes read
    complete is a disagreement: exit 2, with every verdict printed."""
    import glgeom.cli as cli
    monkeypatch.setattr(cli, predicate, lambda *args: word)
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    results = json.loads(out)["results"]
    assert code == 2
    assert results.pop("predicate") == "incomplete"
    assert set(results.values()) == {"complete"}


def test_readme_commands_run(capsys):
    """Every glgeom line of the README's command-line block exits 0."""
    import pathlib
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#")[0].split()[1:]
                for line in block.splitlines() if line.startswith("glgeom ")]
    assert commands
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


def test_bis_concurrent_k1_budget_is_the_orbit_routes(capsys):
    """At k = 1 the oracle also checks one line pair per orbit: 2 pairs
    times 5 points of V(2,4) fit a budget of 200, where all 45 pairs of
    its 10 bisections (225) did not."""
    code, out, _ = run(capsys, "bis-concurrent", "--k", "1", "--m", "1",
                       "--k1", "0", "--k2", "0", "--q", "4",
                       "--budget", "200", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["oracle"] == "complete"


def test_internal_error_exit_code(capsys, monkeypatch):
    """A broken runtime invariant exits 4, not 1 ("bad parameters"): here a
    complement of an orbit root goes missing."""
    import glgeom.orbits as ob
    real = ob._chart_kit

    def one_twice(field, k, index):
        chart, permutation = real(field, k, index)

        def short(code):
            out = chart(code)
            out[1] = out[0]
            return out
        return short, permutation
    monkeypatch.setattr(ob, "_chart_kit", one_twice)
    code, out, err = run(capsys, "orbits", "--q", "2", "--k", "2")
    assert code == 4 and out == ""
    assert err.startswith("internal error:")


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that stops early, as `| head -c 10` does, on output larger
    than a pipe buffer (149 KB): exit 141, not 4, and stderr stays
    empty."""
    import os
    import pathlib
    import subprocess
    import sys

    import glgeom
    src = str(pathlib.Path(glgeom.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ("proj-collinear --n 40 --m 20 --k 20 --j 10 --q 3 "
            "--certificate --format json").split()
    proc = subprocess.Popen([sys.executable, "-m", "glgeom.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head == b'{"certific' and err == b""


def exit_code_and_err(capsys, argv):
    """main's exit code, a usage error's included, and its stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, code, prefix", [
    ("counts --q 1 --k 2 --m 1", 1, "bad parameters: not a prime power"),
    ("counts --q 0 --k 2 --m 1", 1, "bad parameters: not a prime power"),
    ("counts --q 6 --k 2 --m 1", 1, "bad parameters: not a prime power"),
    ("orbits --q 2 --k 0", 1, "bad parameters: need k >= 1"),
    # counts names m itself, not the a = k - m + 1 derived from it
    ("counts --q 2 --k 3 --m 0", 1, "bad parameters: need 1 <= m <= k"),
    ("counts --q 2 --k 3 --m 4", 1, "bad parameters: need 1 <= m <= k"),
    ("proj-collinear --n 4 --m 2 --k 2 --j 1 --q 131072 --mode predicate",
     1, "bad parameters: extension fields above 2^16"),
    ("scan --family proj --qs 2,x", 1, "glgeom scan: error: argument --qs"),
    # each verb takes only the flags it reads
    ("counts --q 4 --k 2 --m 1 --certificate", 1, "glgeom: error: unrec"),
    ("counts --q 4 --k 2 --m 1 --budget 3", 1, "glgeom: error: unrec"),
    ("weyl --n 4 --m 2 --k 2 --j 1 --certificate", 1, "glgeom: error: unrec"),
    ("weyl --n 4 --m 2 --k 2 --j 1 --budget 3", 1, "glgeom: error: unrec"),
    ("orbits --q 2 --k 1 --certificate", 1, "glgeom: error: unrec"),
    ("scan --family sn --max-n 4 --certificate", 1, "glgeom: error: unrec"),
    ("bis-concurrent --k 1 --m 1 --k1 0 --k2 1 --q 2 --certificate",
     1, "glgeom: error: unrec"),
    # every mode checks the parameters, not only the oracle
    ("bis-collinear --k 0 --m 1 --k1 0 --k2 0 --q 2 --mode predicate",
     1, "bad parameters: need k >= 1 and 1 <= m < 2k"),
    ("bis-collinear --k 1 --m 5 --k1 0 --k2 3 --q 2 --mode predicate",
     1, "bad parameters: need k >= 1 and 1 <= m < 2k"),
    ("bis-concurrent --k 2 --m 2 --k1 0 --k2 3 --q 2 --mode predicate",
     1, "bad parameters: need 0 <= k1 <= k2 <= k"),
    ("proj-collinear --n 4 --m 2 --k 2 --j 2 --q 2 --mode predicate",
     1, "bad parameters: incidence would be equality"),
    ("proj-collinear --n 4 --m 2 --k 2 --j 2 --q 2 --mode witness",
     1, "bad parameters: incidence would be equality"),
    # a size the engine will not enumerate is a budget refusal
    ("weyl --n 15 --m 1 --k 1 --j 0", 3,
     "budget exceeded: subset oracle limited to n <= 14"),
])
def test_refusals_at_the_cli_edge(capsys, argv, code, prefix):
    """Input the engine cannot honour is refused with exit 1 (3 for a size
    beyond a limit) and a one-line reason, never a traceback, numbers, or
    exit 4."""
    got, err = exit_code_and_err(capsys, argv.split())
    assert got == code
    assert err.startswith(prefix)


@pytest.mark.parametrize("module, argv", [
    ("orbits", "orbits --q 2 --k 2"),
    ("oracle", "bis-collinear --k 2 --m 2 --k1 0 --k2 2 --q 2 --mode oracle"),
])
def test_value_error_inside_a_route_exits_4(capsys, monkeypatch, module,
                                            argv):
    """A ValueError from a kernel mid-route is the engine's fault: exit 4,
    not "bad parameters": the orbit route's coded index, the oracle's point
    masks."""
    import importlib

    def broken(*args):
        raise ValueError("kernel fault")
    kernel = {"orbits": "grassmannian_index", "oracle": "point_masks"}[module]
    monkeypatch.setattr(importlib.import_module(f"glgeom.{module}"),
                        kernel, broken)
    code, err = exit_code_and_err(capsys, argv.split())
    assert code == 4
    assert err.startswith("internal error: kernel fault\nTraceback")
    assert err.endswith("ValueError: kernel fault\n")


def test_three_exception_classes():
    """One module decides which failures are the caller's: glgeom defines
    ParamError and TooLargeError there, and the witness verdict."""
    import importlib
    import pkgutil

    import glgeom
    for info in pkgutil.iter_modules(glgeom.__path__):
        importlib.import_module(f"glgeom.{info.name}")
    found, todo = set(), [BaseException]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("glgeom"):
                found.add(f"{sub.__module__}.{sub.__qualname__}")
    assert found == {"glgeom.errors.ParamError", "glgeom.errors.TooLargeError",
                     "glgeom.witness.PredicateFailsError"}
