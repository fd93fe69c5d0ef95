import collections
import json
import subprocess
import sys

import numpy as np
import numpy.random  # noqa: F401  (so this process's generator takes the plain path)
import pytest

from dershare.io import write_scenario
from dershare.model import ValidationError, validate_scenario
from dershare.synth import SynthConfig, generate_scenario

from conftest import child_env
from runs import differences


def test_same_seed_is_byte_identical(tmp_path):
    cfg = SynthConfig(n_households=10, n_days=3, n_regions=2, rng_seed=5)
    a, b = tmp_path / "a", tmp_path / "b"
    write_scenario(generate_scenario(cfg), a)
    write_scenario(generate_scenario(cfg), b)
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


_GENERATE_PROBE = """
import json, sys
from pathlib import Path
if sys.argv[3] == "hashlib-first":
    import hashlib
from dershare.io import write_scenario
from dershare.synth import SynthConfig, generate_scenario
write_scenario(generate_scenario(SynthConfig(**json.loads(sys.argv[1]))), Path(sys.argv[2]))
generated = "_hashlib" in sys.modules
import hashlib, hmac
later = "_hashlib" in sys.modules
import _hashlib
print(json.dumps({"generated": generated, "later": later,
                  "pbkdf2_hmac": hasattr(hashlib, "pbkdf2_hmac"),
                  "openssl_compare_digest": hmac.compare_digest is _hashlib.compare_digest}))
"""


@pytest.mark.parametrize("first", ["nothing", "hashlib-first"])
def test_fresh_generator_maps_no_openssl_and_writes_the_same_bytes(tmp_path, first):
    """A fresh process imports numpy.random with _hashlib hidden, and a later
    `import hashlib` still gets OpenSSL; one that loaded hashlib first takes
    the plain path. Both write what this process writes for the config."""
    settings = {"n_households": 6, "n_days": 2, "n_regions": 2, "rng_seed": 11}
    want, got = tmp_path / "want", tmp_path / "got"
    write_scenario(generate_scenario(SynthConfig(**settings)), want)
    proc = subprocess.run([sys.executable, "-c", _GENERATE_PROBE, json.dumps(settings),
                           str(got), first],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"generated": first == "hashlib-first", "later": True,
                                       "pbkdf2_hmac": True, "openssl_compare_digest": True}
    assert sorted(f.name for f in got.iterdir()) == sorted(f.name for f in want.iterdir())
    for f in want.iterdir():
        assert (got / f.name).read_bytes() == f.read_bytes(), f.name


# each call generate_scenario makes of its generator, as (method, args)
_DRAWS = [("uniform", (0.3, 1.0, 4)), ("permutation", (13,)), ("uniform", (0.3, 1.2, 13)),
          ("integers", (-5, 4, 13)), ("uniform", (0.75, 1.0, 3)), ("uniform", (0.9, 1.1, 3)),
          ("uniform", (0.85, 1.15, (3, 24))), ("uniform", (0.85, 1.15, 1))]
_SEEDS = [0, 42, 2**63 + 5]

_NARROW_PROBE = """
import ast, json, pickle, sys
from dershare.synth import _default_rng
draws, seeds = ast.literal_eval(sys.argv[1]), ast.literal_eval(sys.argv[2])
gens = [_default_rng(seed) for seed in seeds]
got = [[getattr(g, name)(*args).tobytes().hex() for name, args in draws] for g in gens]
narrow = sorted(m for m in sys.modules if m.startswith("numpy.random"))
import numpy as np
import numpy.random
copies = [pickle.loads(pickle.dumps(g)) for g in gens]
print(json.dumps({"draws": got, "narrow": narrow,
                  "types": [type(g) is np.random.Generator for g in gens + copies],
                  "pickled": [c.uniform(0, 1, 5).tobytes() == g.uniform(0, 1, 5).tobytes()
                              for g, c in zip(gens, copies)],
                  "later": np.random.default_rng(7).integers(0, 100, 3).tolist()}))
"""


def test_narrow_generator_draws_what_default_rng_draws():
    """A fresh process builds Generator(PCG64(seed)) without numpy.random's
    __init__; each draw generate_scenario makes equals np.random.default_rng's
    byte for byte, and a later `import numpy.random` and a pickle round trip
    of the generator still work."""
    proc = subprocess.run([sys.executable, "-c", _NARROW_PROBE, repr(_DRAWS), repr(_SEEDS)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["narrow"] == ["numpy.random._bounded_integers", "numpy.random._common",
                                "numpy.random._generator", "numpy.random._pcg64",
                                "numpy.random.bit_generator"]
    for seed, got in zip(_SEEDS, result["draws"]):
        oracle = np.random.default_rng(seed)
        assert got == [getattr(oracle, name)(*a).tobytes().hex() for name, a in _DRAWS], seed
    assert result["types"] == [True] * 2 * len(_SEEDS)
    assert result["pickled"] == [True] * len(_SEEDS)
    assert result["later"] == np.random.default_rng(7).integers(0, 100, 3).tolist()


_FALLBACK_PROBE = """
import json, sys
from importlib.abc import MetaPathFinder
refused = []

class RefusePCG64(MetaPathFinder):
    # a numpy whose _pcg64 the narrow path cannot import: refused while numpy.random
    # is _default_rng's unexecuted stand-in, found once the real package runs
    def find_spec(self, name, path, target=None):
        if name != "numpy.random._pcg64":
            return None
        if "__builtins__" not in vars(sys.modules["numpy.random"]):
            refused.append(name)
            raise ImportError(f"No module named {name!r}")

sys.meta_path.insert(0, RefusePCG64())
from dershare.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "refused": refused,
                  "package": "numpy.random.mtrand" in sys.modules}))
"""


def test_generator_falls_back_to_default_rng_where_the_narrow_import_fails(tmp_path):
    """Where numpy.random's _generator or _pcg64 will not import on their own,
    gen-data takes np.random.default_rng after cleaning up, and writes what
    the narrow path writes."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_households": 6, "n_days": 2, "n_regions": 2,
                                            "rng_seed": 11}}))
    narrow, fallback = tmp_path / "narrow", tmp_path / "fallback"
    args = ["gen-data", "--config", str(config), "--out"]
    proc = subprocess.run([sys.executable, "-m", "dershare", *args, str(narrow)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-c", _FALLBACK_PROBE, *args, str(fallback)],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "code": 0, "refused": ["numpy.random._pcg64"], "package": True}
    assert differences(narrow, fallback) == []


def test_different_seed_differs():
    cfg = SynthConfig(n_households=4, n_days=2, rng_seed=1)
    other = SynthConfig(n_households=4, n_days=2, rng_seed=2)
    a = generate_scenario(cfg).households[0].load
    b = generate_scenario(other).households[0].load
    assert not np.array_equal(a, b)


def test_zero_households_rejected():
    with pytest.raises(ValidationError):
        generate_scenario(SynthConfig(n_households=0))


def test_config_validation_buy_sell_ordering():
    with pytest.raises(ValidationError) as exc:
        SynthConfig(offpeak_price=0.05, sell_mean=0.04, sell_amplitude=0.02)
    assert exc.value.fieldname == "offpeak_price"
    with pytest.raises(ValidationError):
        SynthConfig(peak_price=0.1, offpeak_price=0.2)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValidationError) as exc:
        SynthConfig.from_dict({"n_households": 5, "voltage": 240})
    assert exc.value.fieldname == "synth.voltage"


def test_seed_must_be_nonnegative():
    with pytest.raises(ValidationError) as exc:
        SynthConfig.from_dict({"rng_seed": -1})
    assert exc.value.fieldname == "synth.rng_seed"


def test_from_dict_checks_value_types():
    for bad in ({"n_households": "x"}, {"n_days": 2.5}, {"rng_seed": True},
                {"peak_price": "0.5"}, {"sell_mean": float("nan")},
                {"load_peak_window": [16]}, {"base_load_range": [0.3, "1.2"]},
                {"region_center": [36.8, float("inf")]}):
        with pytest.raises(ValidationError) as exc:
            SynthConfig.from_dict(bad)
        assert exc.value.fieldname == f"synth.{next(iter(bad))}"
    # an int stands for a float and a list for a tuple
    cfg = SynthConfig.from_dict({"peak_price": 1, "region_center": [36, -119.5]})
    assert cfg.peak_price == 1 and cfg.region_center == (36, -119.5)


def test_balanced_region_assignment():
    sc = generate_scenario(SynthConfig(n_households=100, n_days=2, n_regions=5, rng_seed=9))
    counts = collections.Counter(h.region_id for h in sc.households)
    assert len(counts) == 5
    for c in counts.values():
        assert 10 <= c <= 30  # within +-50% of 20


def test_generated_scenario_valid_and_positive():
    sc = generate_scenario(SynthConfig(n_households=12, n_days=5, n_regions=3, rng_seed=3))
    validate_scenario(sc)
    for hh in sc.households:
        assert np.min(hh.load) > 0.0  # strictly positive consumption everywhere
    assert np.min(sc.buy - sc.sell) >= 0.0


def test_irradiance_zero_outside_daylight():
    cfg = SynthConfig(n_households=2, n_days=4, rng_seed=8)
    sc = generate_scenario(cfg)
    lo, hi = cfg.daylight_window
    assert np.all(sc.irradiance[:, :lo] == 0.0)
    assert np.all(sc.irradiance[:, hi:] == 0.0)
    assert np.all(sc.irradiance[:, lo:hi] > 0.0)


def test_peak_fractions_are_heterogeneous():
    sc = generate_scenario(SynthConfig(n_households=40, n_days=4, rng_seed=21))
    lo, hi = SynthConfig().load_peak_window
    fracs = []
    for hh in sc.households:
        peak = hh.load[:, lo:hi].sum()
        fracs.append(peak / hh.load.sum())
    assert np.std(fracs) > 0.02
