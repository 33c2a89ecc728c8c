"""The config loader on both PyYAML bases: libyaml and pure Python.

The loaders use libyaml when PyYAML has it. PyYAML's Python constructor and
resolver build the values on either base, so both must give equal values;
only the wording of a syntax error may differ.
"""

import glob
import os
import re

import pytest
import yaml

from fairdyn import _yaml
from fairdyn.causal import load_causal_model
from fairdyn.errors import ConfigError
from fairdyn.scenarios import load_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = sorted(
    glob.glob(os.path.join(REPO, "configs", "*.yaml"))
    + glob.glob(os.path.join(REPO, "src", "fairdyn", "data", "*.yaml"))
)

BASES = {"pure": yaml.SafeLoader}
if yaml.__with_libyaml__:
    BASES["libyaml"] = yaml.CSafeLoader

EDGE_DOCUMENTS = {
    "non_finite": "a: .nan\nb: .NaN\nc: .inf\nd: -.inf\ne: [+.inf, .Inf]\n",
    "merge_key": (
        "base: &base {p: 1, q: [1, 2.5]}\n"
        "merged:\n  <<: *base\n  q: 3\n"
        "list_merge:\n  <<: [*base, {r: 4}]\n"
        "alias: *base\n"
    ),
    "quoted_numbers": (
        "q: ['1', \"2.5\", '.nan', \"1e3\", 'true', '~']\n"
        "plain: [1, 2.5, 1e3, 1.0e-6, 0x1F, 017, 1_000, +12, -0.0]\n"
    ),
    "dates": "d: 2024-05-01\nt: 2001-12-14t21:59:43.10-05:00\nq: '2024-05-01'\n",
    "scalars": "n: ~\nb: [yes, no, true, Off]\nk: {1: one, 2.5: two, null: three}\n",
}


def loader_on(base):
    return type(f"UniqueKeyLoader_{base.__name__}", (_yaml._UniqueKeys, base), {})


def load_on(base, text):
    return yaml.load(text, Loader=loader_on(base))


@pytest.fixture(params=["installed", *sorted(BASES)])
def base(request, monkeypatch):
    """Route both file loaders through the loader built on one base, or
    leave the installed loader in place."""
    if request.param != "installed":
        monkeypatch.setattr(_yaml, "_UniqueKeyLoader", loader_on(BASES[request.param]))
    return request.param


def test_libyaml_is_used_when_pyyaml_has_it():
    bases = _yaml._UniqueKeyLoader.__mro__
    if yaml.__with_libyaml__:
        assert yaml.CSafeLoader in bases
    else:
        assert yaml.SafeLoader in bases


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
class TestSameValues:
    # ``repr`` tells NaN, int/float and date/str apart, and keeps key order.
    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_shipped_files(self, path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        pure = load_on(yaml.SafeLoader, text)
        assert repr(load_on(yaml.CSafeLoader, text)) == repr(pure)
        with open(path, encoding="utf-8") as fh:  # a text file, as causal reads
            assert repr(load_on(yaml.CSafeLoader, fh)) == repr(pure)

    @pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
    def test_edge_documents(self, name):
        text = EDGE_DOCUMENTS[name]
        pure = load_on(yaml.SafeLoader, text)
        assert repr(load_on(yaml.CSafeLoader, text)) == repr(pure)

    def test_edge_values(self):
        got = {k: load_on(yaml.CSafeLoader, v) for k, v in EDGE_DOCUMENTS.items()}
        assert repr(list(got["non_finite"].values())[:4]) == "[nan, nan, inf, -inf]"
        assert got["merge_key"]["merged"] == {"p": 1, "q": 3}
        assert got["merge_key"]["list_merge"] == {"p": 1, "q": [1, 2.5], "r": 4}
        assert got["quoted_numbers"]["q"][:2] == ["1", "2.5"]
        assert got["quoted_numbers"]["plain"][:3] == [1, 2.5, "1e3"]
        assert got["dates"]["q"] == "2024-05-01"
        assert str(got["dates"]["d"]) == "2024-05-01"


def shipped_text(name):
    with open(os.path.join(REPO, "src", "fairdyn", "data", f"{name}.yaml"),
              encoding="utf-8") as fh:
        return fh.read()


def causal_text():
    with open(os.path.join(REPO, "configs", "hiring_causal.yaml"),
              encoding="utf-8") as fh:
        return fh.read()


class TestRejected:
    @pytest.mark.parametrize(
        "load,text,message",
        [
            (load_scenario, shipped_text("lending_liu") + "horizon: 3\n",
             "found duplicate key 'horizon'"),
            (load_scenario, "population: [1, 2\n", "cannot parse"),
            (load_causal_model, causal_text() + '    "D=1,X=1": [0.8, 0.2]\n',
             "found duplicate key 'D=1,X=1'"),
            (load_causal_model, causal_text().replace("edges:", "edges: [[A, D]"),
             "cannot parse"),
        ],
        ids=["scenario_key", "scenario_syntax", "causal_key", "causal_syntax"],
    )
    def test_config_error_names_the_file(self, base, tmp_path, load, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)) as got:
            load(str(path))
        assert str(path) in str(got.value)

    def test_shipped_files_still_load(self, base):
        assert load_scenario("boards_quota").horizon == 40
        model = load_causal_model(os.path.join(REPO, "configs", "hiring_causal.yaml"))
        assert model.protected and model.outcome
