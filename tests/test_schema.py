"""One section resolver: the parser, ``Model`` and the cost model agree on
which ``altup``/``seq``/``memory`` sections a variant takes and what is valid."""

import json
import re
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altup import costs, models, schema, transformer as tr
from altup.schema import ConfigError
from altup.train import config_from_dict

MODEL = {"d_model": 8, "n_layers": 2, "n_heads": 2, "ffn_hidden": 8,
         "vocab_size": 258, "max_seq_len": 8}
CFG = tr.ModelConfig(**MODEL)

# Junk of every kind: a non-object, an unknown key, a wrong type, and values
# that break a bound or a cross-field rule.
_JUNK = {
    "altup": [{"k": 2, "j_fixed": 2}, {"k": 1, "j_fixed": 1}, {"k": 0}, {"k": True},
              {"selection": "bogus"}, {"mode": 1}, "x", 5],
    "seq": [{"stride": 0}, {"stride": -1}, {"wrap": "bogus"}, {"stride": 1.5}, "x", []],
    "memory": [{"n": 7, "lookup": "token_id"}, {"n": 259, "lookup": "token_id"},
               {"n": 3, "lookup": "lsh", "k": 4}, {"n": 3, "lookup": "lsh", "rank": 0},
               {"lookup": "lsh"}, {"n": 0, "lookup": "softmax"}, {"n": 3, "lookup": "bogus"},
               {"n": 3, "lookup": "lsh", "jitter_eps": -1.0}, "x"],
}


def _typed(name):
    """A well-typed section whose values reach just past their bounds
    (j_fixed >= k, stride 0, rank 0, k > n, a token-id n of 257)."""
    if name == "altup":
        return st.fixed_dictionaries({"k": st.integers(1, 3)}, optional={
            "selection": st.sampled_from(schema.SELECTION_MODES),
            "j_fixed": st.integers(0, 3)})
    if name == "seq":
        return st.fixed_dictionaries({}, optional={
            "stride": st.integers(0, 5), "wrap": st.sampled_from(schema.WRAP_MODES)})
    return st.sampled_from(schema.LOOKUPS).flatmap(lambda lookup: st.fixed_dictionaries(
        {"n": st.sampled_from([257, 258]) if lookup == "token_id" else st.integers(1, 4),
         "lookup": st.just(lookup)},
        optional={"rank": st.integers(0, 2), "k": st.integers(1, 5),
                  "jitter_eps": st.sampled_from([0, 0.01]), "constant": st.booleans()}))


@st.composite
def _cases(draw):
    """A variant and its three sections, each absent, well-typed or junk. A
    section the variant can take is mostly well-typed, and any other mostly
    absent, so about 40% of the cases build."""
    variant = draw(st.sampled_from(list(schema.VARIANTS) + ["bogus"]))
    sections = {}
    for name in ("altup", "seq", "memory"):
        takes = name == schema.VARIANTS.get(variant) or (name, variant) == ("memory", "dense")
        kind = draw(st.sampled_from(["typed"] * 6 + ["absent", "junk"] if takes
                                    else ["absent"] * 6 + ["typed", "junk"]))
        if kind != "absent":
            sections[name] = draw(_typed(name) if kind == "typed"
                                  else st.sampled_from(_JUNK[name]))
    return variant, sections


def _outcome(call):
    try:
        return call()
    except ConfigError:
        return None


@settings(max_examples=200, deadline=None)
@given(case=_cases())
def test_parser_model_and_cost_model_agree(case):
    variant, sections = case
    raw = {"model": MODEL, "variant": variant, "task": {"seq_len": 5}, **sections}
    parsed = _outcome(lambda: config_from_dict(raw))
    model = _outcome(lambda: models.Model(CFG, variant, **sections))
    report = _outcome(lambda: costs.count_params(CFG, variant, **sections))
    assert (parsed is None) == (model is None) == (report is None), (parsed, model, report)
    if model is not None:
        assert model.census() == report.embedding_params + report.non_embedding_params
        assert (parsed.altup, parsed.seq, parsed.memory) == (model.altup, model.seq, model.memory)


@pytest.mark.parametrize("call", [
    lambda: models.Model(CFG, "dense", altup={"k": 4}),
    lambda: models.Model(CFG, "stride_skip", seq={"stride": 0}),
    lambda: models.Model(CFG, "avg_pool", seq={"stride": 0}),
    lambda: models.Model(CFG, "altup", altup={"k": 2}, seq={"wrap": "bogus"}),
    lambda: costs.count_params(CFG, "dense", altup={"k": 4}),
], ids=["dense_with_altup", "stride_skip_stride_0", "avg_pool_stride_0",
        "altup_with_seq", "cost_dense_with_altup"])
def test_invalid_sections_raise_at_construction(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("variant", [v for v, taken in schema.VARIANTS.items() if taken])
def test_a_variant_that_takes_a_section_needs_one(variant):
    section = schema.VARIANTS[variant]
    for call in (models.Model, costs.count_params):
        with pytest.raises(ConfigError, match=f"requires a '{section}' section"):
            call(CFG, variant)
    model = models.Model(CFG, variant, **{section: {}})
    assert getattr(model, section) == schema.DEFAULTS[section]
    report = costs.count_params(CFG, variant, **{section: {}})
    assert model.census() == report.embedding_params + report.non_embedding_params


_TYPE_NAMES = {int: "int", float: "float", str: "str", bool: "bool", str | None: "str or null"}


def test_readme_table_lists_every_field_with_its_schema_type_and_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| ([^|]+?) \| ([^|]+?) \|", readme, re.M)
    expected = {f"model.{name}": (_TYPE_NAMES[hint], "required")
                for name, hint in get_type_hints(tr.ModelConfig).items()}
    for section, fields in schema.SECTIONS.items():
        for key, f in fields.items():
            default = ("required" if f.default is schema.REQUIRED
                       else f"`{json.dumps(f.default)}`")
            expected[key if section == "config" else f"{section}.{key}"] = (
                _TYPE_NAMES[f.type], default)
    assert {name: (kind, default) for name, kind, default in rows} == expected
    assert len(rows) == len(expected)
