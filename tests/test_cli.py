import json

import pytest
from click.testing import CliRunner

from kronmot import central, wallcross
from kronmot.cache import Cache
from kronmot.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args, **kw):
    return runner.invoke(main, list(args), **kw)


class TestFramed:
    def test_plain(self, runner):
        res = run(runner, "--no-cache", "framed", "--m", "3", "--d", "1")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "1,1,1"

    def test_json(self, runner):
        res = run(runner, "--no-cache", "--format", "json",
                  "framed", "--m", "3", "--d", "2")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["schema"] == "kronmot/1"
        assert payload["command"] == "framed"
        assert payload["result"]["m"] == 3
        assert payload["result"]["motive"]["coeffs"][::2] == [
            "1", "2", "3", "3", "3", "2", "1",
        ]

    def test_all_methods_agree(self, runner):
        res = run(runner, "--no-cache", "framed", "--m", "4", "--d", "2",
                  "--method", "all")
        assert res.exit_code == 0

    def test_bad_m(self, runner):
        res = run(runner, "--no-cache", "framed", "--m", "2", "--d", "1")
        assert res.exit_code == 2


class TestModuli:
    def test_plain(self, runner):
        res = run(runner, "--no-cache", "moduli", "--m", "3", "--d", "3",
                  "--e", "2")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "1,1,3,3,3,1,1"

    def test_non_coprime_exits_2(self, runner):
        res = run(runner, "--no-cache", "moduli", "--m", "3", "--d", "2",
                  "--e", "2")
        assert res.exit_code == 2
        assert "not coprime" in res.output

    def test_zero_vector_exits_2(self, runner):
        res = run(runner, "--no-cache", "moduli", "--m", "3", "--d", "0",
                  "--e", "0")
        assert res.exit_code == 2


class TestHn:
    def test_plain_lists_rays(self, runner):
        res = run(runner, "--no-cache", "hn", "--m", "3", "--bound", "2")
        assert res.exit_code == 0
        assert "(1,1) motive: 1,1,1" in res.output

    def test_json(self, runner):
        res = run(runner, "--no-cache", "--format", "json",
                  "hn", "--m", "3", "--bound", "2")
        payload = json.loads(res.output)
        vectors = {(r["d"], r["e"]) for r in payload["result"]}
        assert (1, 1) in vectors and (2, 0) in vectors


class TestSeries:
    def test_f_plain(self, runner):
        res = run(runner, "--no-cache", "series", "--which", "F", "--m", "3",
                  "--order", "1")
        assert "t^0: 1" in res.output
        assert "t^1: 1,1,1" in res.output

    def test_g_json_round(self, runner):
        res = run(runner, "--no-cache", "--format", "json", "series",
                  "--which", "G", "--m", "3", "--order", "2")
        payload = json.loads(res.output)
        assert payload["result"]["order"] == 2

    @pytest.mark.parametrize("which", ["F", "G"])
    @pytest.mark.parametrize("k", ["1", "9"])
    def test_k_refused_for_f_and_g(self, runner, monkeypatch, which, k):
        def no_compute(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(central, "framed_recursion", no_compute)
        res = run(runner, "--no-cache", "series", "--which", which, "--m", "3",
                  "--k", k, "--order", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--k applies only to --which A" in res.stderr

    def test_a_slope_out_of_range(self, runner):
        res = run(runner, "--no-cache", "series", "--which", "A", "--m", "3",
                  "--k", "5", "--order", "2")
        assert res.exit_code == 2


class TestEuler:
    def test_framed_value(self, runner):
        res = run(runner, "--no-cache", "euler", "--m", "3", "--d", "3",
                  "--kind", "framed")
        assert res.output.strip() == "91"

    def test_moduli_checked(self, runner):
        res = run(runner, "--no-cache", "euler", "--m", "3", "--d", "4",
                  "--kind", "moduli", "--check")
        assert res.exit_code == 0
        assert res.output.strip() == "68"

    def test_csv(self, runner):
        res = run(runner, "--no-cache", "--format", "csv", "euler",
                  "--m", "3", "--d", "2", "--kind", "moduli")
        assert res.output.strip() == "3,2,moduli,3"


class TestTamari:
    def test_formula(self, runner):
        res = run(runner, "--no-cache", "tamari", "--m-prime", "1", "--n", "3")
        assert res.output.strip() == "13"

    def test_brute_checked(self, runner):
        res = run(runner, "--no-cache", "tamari", "--m-prime", "2", "--n", "3",
                  "--method", "brute", "--check")
        assert res.exit_code == 0
        assert res.output.strip() == "58"

    def test_resource_cap_exits_4(self, runner):
        res = run(runner, "--no-cache", "--max-paths", "3", "tamari",
                  "--m-prime", "1", "--n", "4", "--method", "brute")
        assert res.exit_code == 4

    def test_negative_max_paths_rejected(self, runner):
        res = run(runner, "--no-cache", "--max-paths", "-5", "tamari",
                  "--m-prime", "1", "--n", "3", "--check")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--max-paths" in res.stderr


class TestVerify:
    def test_maintheorem(self, runner):
        res = run(runner, "--no-cache", "verify", "--identity", "maintheorem",
                  "--m", "3", "--order", "3")
        assert res.exit_code == 0
        assert "PASS" in res.output and "FAIL" not in res.output

    def test_corident_all_k(self, runner):
        res = run(runner, "--no-cache", "--format", "json", "verify",
                  "--identity", "corident", "--m", "3", "--order", "2")
        payload = json.loads(res.output)
        assert {r["k"] for r in payload["result"]} == {1, 2}
        assert all(r["status"] == "pass" for r in payload["result"])

    def test_dualities(self, runner):
        res = run(runner, "--no-cache", "verify", "--identity", "dualities",
                  "--m", "3", "--order", "4")
        assert res.exit_code == 0

    @pytest.mark.parametrize("identity", ["maintheorem", "vdifference", "funceq",
                                          "eqnew", "dualities"])
    def test_k_refused_where_unused(self, runner, monkeypatch, identity):
        def no_compute(*args):
            raise AssertionError("computed")

        for name in ("framed_recursion", "g_series"):
            monkeypatch.setattr(central, name, no_compute)
        monkeypatch.setattr(wallcross, "verify_dualities", no_compute)
        res = run(runner, "--no-cache", "verify", "--identity", identity,
                  "--m", "3", "--k", "7", "--order", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--k applies only to" in res.stderr

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("identity", ["corident", "newduality"])
    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_no_k_to_check_rejected(self, runner, fmt, identity, m):
        # 1 <= k <= m-1 is empty, so looping over k would check nothing
        res = run(runner, "--no-cache", "--format", fmt, "verify",
                  "--identity", identity, "--m", str(m), "--order", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"--identity {identity} needs m >= 2" in res.stderr

    def test_order_below_one_rejected(self, runner):
        res = run(runner, "--no-cache", "verify", "--identity", "dualities",
                  "--m", "3", "--order", "0")
        assert res.exit_code == 2
        assert "order must be >= 1" in res.output
        assert "max()" not in res.output


@pytest.mark.parametrize("args", [
    ("series", "--which", "F", "--m", "3", "--order", "2"),
    ("hn", "--m", "3", "--bound", "2"),
    ("verify", "--identity", "maintheorem", "--m", "3", "--order", "2"),
])
def test_csv_rejected_where_unsupported(runner, args):
    res = run(runner, "--no-cache", "--format", "csv", *args)
    assert res.exit_code == 2
    assert f"not supported by `{args[0]}`" in res.output
    assert "framed, moduli, euler, tamari" in res.output


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_selftest_refuses_other_formats(runner, monkeypatch, fmt):
    from kronmot import selftest

    def no_run(echo):
        raise AssertionError("ran")

    monkeypatch.setattr(selftest, "run", no_run)
    res = run(runner, "--format", fmt, "selftest")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"--format {fmt} is not supported by `selftest`" in res.stderr


class TestCache:
    def test_cache_transparent(self, runner, tmp_path):
        args = ["--cache-dir", str(tmp_path), "--format", "json",
                "moduli", "--m", "3", "--d", "4", "--e", "3"]
        cold = runner.invoke(main, args)
        warm = runner.invoke(main, args)
        nocache = run(runner, "--no-cache", "--format", "json",
                      "moduli", "--m", "3", "--d", "4", "--e", "3")
        assert cold.exit_code == warm.exit_code == 0
        assert cold.output == warm.output == nocache.output
        assert list(tmp_path.iterdir())  # something was actually stored

    @pytest.mark.parametrize("command,params,args", [
        ("moduli", {"m": 3, "d": 3, "e": 2},
         ("moduli", "--m", "3", "--d", "3", "--e", "2")),
        ("hn", {"m": 3, "bound": 3}, ("hn", "--m", "3", "--bound", "3")),
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2")),
    ])
    @pytest.mark.parametrize("payload", [
        {"wrong": 1},
        [{"wrong": 1}],
        [],
        {"min_exp": 0, "coeffs": ["x"]},
        {"min_exp": 1.0, "coeffs": ["1"]},
    ])
    def test_wrong_shape_entry_discarded(self, runner, tmp_path, command,
                                         params, args, payload):
        # a valid JSON entry under the right key, with a payload of the wrong shape
        key = Cache.make_key(command, **params)
        tmp_path.joinpath(Cache(tmp_path)._path(key).name).write_text(
            json.dumps({"key": key, "payload": payload}))
        for fmt in ("plain", "json"):
            planted = run(runner, "--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run(runner, "--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 0
            assert planted.output == fresh.output
        # the bad entry was replaced by a good one
        assert Cache(tmp_path).get(key) != payload

    @pytest.mark.parametrize("command,params,args,other", [
        ("hn", {"m": 3, "bound": 3}, ("hn", "--m", "3", "--bound", "3"),
         ("hn", "--m", "3", "--bound", "2")),
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2"),
         ("series", "--which", "F", "--m", "3", "--order", "1")),
    ])
    def test_well_formed_payload_of_other_size_discarded(
            self, runner, tmp_path, command, params, args, other):
        # a payload that decodes cleanly but belongs to a smaller instance
        res = run(runner, "--no-cache", "--format", "json", *other)
        key = Cache.make_key(command, **params)
        Cache(tmp_path).put(key, json.loads(res.output)["result"])
        planted = run(runner, "--cache-dir", str(tmp_path), "--format", "json", *args)
        fresh = run(runner, "--no-cache", "--format", "json", *args)
        assert planted.exit_code == fresh.exit_code == 0
        assert planted.output == fresh.output

    HN = ("hn", {"m": 3, "bound": 3}, ("hn", "--m", "3", "--bound", "3"))

    @pytest.mark.parametrize("command,params,args,edits", [
        ("moduli", {"m": 3, "d": 3, "e": 2},
         ("moduli", "--m", "3", "--d", "3", "--e", "2"),
         {("coeffs", 0): "1/2", ("coeffs", -1): "1/2"}),
        ("framed", {"m": 3, "d": 2, "method": "recursion"},
         ("framed", "--m", "3", "--d", "2"), {("coeffs", 0): "1/2"}),
        ("series", {"which": "G", "m": 3, "k": 1, "order": 3},
         ("series", "--which", "G", "--m", "3", "--order", "3"),
         {("coeffs", 2, "num", "coeffs", 0): "1/2"}),
        ("series", {"which": "A", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "A", "--m", "3", "--order", "2"),
         {("coeffs", 1, "num", "coeffs", 0): "1/2"}),
        # 1 / (1 + v) is a canonical RatFunc, but no coefficient of F
        ("series", {"which": "F", "m": 3, "k": 1, "order": 2},
         ("series", "--which", "F", "--m", "3", "--order", "2"),
         {("coeffs", 1): {"num": {"min_exp": 0, "coeffs": ["1"]},
                          "den": {"min_exp": 0, "coeffs": ["1", "1"]}}}),
        # record 4 is the coprime (1,1), record 3 the non-coprime (0,2)
        (*HN, {(4, "motive", "coeffs", 0): "1/2"}),
        (*HN, {(4, "a", "num", "coeffs", 0): "1/2"}),
        (*HN, {(4, "motive"): None}),
        (*HN, {(3, "motive"): {"min_exp": 0, "coeffs": ["1"]}}),
    ])
    def test_non_integer_entry_discarded(self, runner, tmp_path, command,
                                         params, args, edits):
        key = Cache.make_key(command, **params)
        assert run(runner, "--cache-dir", str(tmp_path), *args).exit_code == 0
        good = Cache(tmp_path).get(key)
        bad = json.loads(json.dumps(good))
        for path, value in edits.items():
            target = bad
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value
        assert bad != good
        for fmt in ("plain", "json"):
            Cache(tmp_path).put(key, bad)
            planted = run(runner, "--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run(runner, "--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 0
            assert planted.output == fresh.output
            # the bad entry was discarded and the recomputed one stored
            assert Cache(tmp_path).get(key) == good

    @pytest.mark.parametrize("text", ["[1, 2]", "[" * 100000])
    def test_non_object_entry_ignored(self, runner, tmp_path, text):
        args = ["--cache-dir", str(tmp_path), "moduli", "--m", "3", "--d", "2",
                "--e", "1"]
        first = runner.invoke(main, args)
        for f in tmp_path.iterdir():
            f.write_text(text)
        second = runner.invoke(main, args)
        assert second.exit_code == 0
        assert second.output == first.output

    def test_corrupt_cache_entry_ignored(self, runner, tmp_path):
        args = ["--cache-dir", str(tmp_path),
                "framed", "--m", "3", "--d", "2"]
        first = runner.invoke(main, args)
        for f in tmp_path.iterdir():
            f.write_text("{not json")
        second = runner.invoke(main, args)
        assert second.exit_code == 0
        assert second.output == first.output

    @pytest.mark.parametrize("failing", ["os.replace", "json.dump"])
    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch, failing):
        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(f"kronmot.cache.{failing}", refuse)
        cache = Cache(tmp_path)
        key = Cache.make_key("moduli", m=3, d=3, e=2)
        cache.put(key, {"min_exp": 0, "coeffs": ["1"]})
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert cache.get(key) is None

    def test_entry_of_other_version_not_served(self, runner, tmp_path,
                                               monkeypatch):
        # a well-formed but wrong motive left by another release of the package
        with monkeypatch.context() as mp:
            mp.setattr("kronmot.cache.__version__", "0.0.0-other")
            stale_key = Cache.make_key("moduli", m=3, d=3, e=2)
        assert stale_key != Cache.make_key("moduli", m=3, d=3, e=2)
        Cache(tmp_path).put(stale_key, {"min_exp": 0, "coeffs": ["7"]})
        res = run(runner, "--cache-dir", str(tmp_path), "moduli", "--m", "3",
                  "--d", "3", "--e", "2")
        assert res.exit_code == 0
        assert res.output.splitlines()[-1] == "1,1,3,3,3,1,1"
        assert "0: 7" not in res.output
        assert Cache(tmp_path).get(stale_key) == {"min_exp": 0, "coeffs": ["7"]}

    # a well-formed entry planted under the key of a request that exits 2
    ONE_SERIES = {"order": 1, "coeffs": [
        {"num": {"min_exp": 0, "coeffs": ["1"]},
         "den": {"min_exp": 0, "coeffs": ["1"]}}] * 2}

    @pytest.mark.parametrize("command,params,args,payload", [
        ("moduli", {"m": 3, "d": 2, "e": 2},
         ("moduli", "--m", "3", "--d", "2", "--e", "2"),
         {"min_exp": 0, "coeffs": ["7"]}),
        ("series", {"which": "F", "m": 2, "k": 1, "order": 1},
         ("series", "--which", "F", "--m", "2", "--order", "1"), ONE_SERIES),
        ("series", {"which": "G", "m": 2, "k": 1, "order": 1},
         ("series", "--which", "G", "--m", "2", "--order", "1"), ONE_SERIES),
        ("series", {"which": "A", "m": 1, "k": 1, "order": 1},
         ("series", "--which", "A", "--m", "1", "--k", "1", "--order", "1"),
         ONE_SERIES),
    ])
    def test_invalid_request_not_served_from_cache(self, runner, tmp_path,
                                                   command, params, args, payload):
        Cache(tmp_path).put(Cache.make_key(command, **params), payload)
        for fmt in ("plain", "json"):
            planted = run(runner, "--cache-dir", str(tmp_path), "--format", fmt, *args)
            fresh = run(runner, "--no-cache", "--format", fmt, *args)
            assert planted.exit_code == fresh.exit_code == 2
            assert planted.stdout == fresh.stdout == ""
            assert planted.stderr == fresh.stderr != ""
