"""Reporter round-trips and baseline diffing, property-tested."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.core import Finding
from repro.analysis.report import Baseline, render_json, render_text

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=40,
)

findings = st.builds(
    Finding,
    rule=st.sampled_from(
        ["DET001", "DET002", "DTYPE001", "LOCK001", "RES001", "PROTO001"]
    ),
    severity=st.sampled_from(["error", "warning"]),
    path=_text.map(lambda s: f"src/{s}.py"),
    line=st.integers(min_value=1, max_value=10_000),
    col=st.integers(min_value=1, max_value=500),
    message=_text,
    context=_text,
)


def parse(text):
    """The findings, suppressed count and stale entries of a JSON report."""
    doc = json.loads(text)
    return (
        [Finding.from_dict(d) for d in doc.get("findings", [])],
        int(doc.get("suppressed", 0)),
        [Finding.from_dict(d) for d in doc.get("stale", [])],
    )


class TestJsonRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(fs=st.lists(findings, max_size=10), suppressed=st.integers(0, 50))
    def test_render_parse_identity(self, fs, suppressed):
        parsed, parsed_suppressed, stale = parse(render_json(fs, suppressed=suppressed))
        assert parsed == fs
        assert parsed_suppressed == suppressed
        assert stale == []

    @settings(max_examples=50, deadline=None)
    @given(fs=st.lists(findings, max_size=6), stale=st.lists(findings, max_size=4))
    def test_stale_entries_round_trip(self, fs, stale):
        parsed, _, parsed_stale = parse(render_json(fs, stale=stale))
        assert parsed == fs
        assert parsed_stale == stale

    @settings(max_examples=50, deadline=None)
    @given(fs=st.lists(findings, max_size=6))
    def test_output_is_valid_json(self, fs):
        json.loads(render_json(fs))


class TestBaselineDiff:
    @settings(max_examples=200, deadline=None)
    @given(fs=st.lists(findings, max_size=10))
    def test_self_baseline_accepts_everything(self, fs):
        new, stale = Baseline(entries=list(fs)).diff(fs)
        assert new == []
        assert stale == []

    @settings(max_examples=100, deadline=None)
    @given(fs=st.lists(findings, max_size=8), extra=findings)
    def test_unbaselined_finding_is_new(self, fs, extra):
        new, _ = Baseline(entries=list(fs)).diff(fs + [extra])
        # The baseline's multiset budget for extra.key is exhausted by
        # matching occurrences already inside fs, so exactly one of the
        # extra.key findings surfaces as new.
        assert [f.key for f in new] == [extra.key]

    @settings(max_examples=100, deadline=None)
    @given(fs=st.lists(findings, min_size=1, max_size=8))
    def test_fixed_finding_goes_stale(self, fs):
        new, stale = Baseline(entries=list(fs)).diff(fs[1:])
        assert new == []
        assert [e.key for e in stale] == [fs[0].key]

    @settings(max_examples=100, deadline=None)
    @given(f=findings)
    def test_multiset_semantics(self, f):
        # Two identical findings need two baseline entries.
        new, stale = Baseline(entries=[f]).diff([f, f])
        assert len(new) == 1
        assert stale == []

    @settings(max_examples=50, deadline=None)
    @given(fs=st.lists(findings, max_size=8))
    def test_save_load_round_trip(self, fs, tmp_path_factory):
        p = tmp_path_factory.mktemp("baseline") / "b.json"
        Baseline(entries=list(fs)).save(p)
        loaded = Baseline.load(p)
        assert sorted(e.key for e in loaded.entries) == sorted(e.key for e in fs)

    def test_missing_file_is_empty(self, tmp_path):
        b = Baseline.load(tmp_path / "nope.json")
        assert b.entries == []


class TestTextRenderer:
    def test_mentions_location_rule_and_summary(self):
        f = Finding("DET001", "error", "src/x.py", 3, 7, "bad rng", "np.random.rand()")
        out = render_text([f], suppressed=2)
        assert "src/x.py:3:7" in out
        assert "DET001" in out
        assert "np.random.rand()" in out
        assert "1 finding" in out
        assert "2 suppressed" in out

    def test_stale_entries_reported(self):
        e = Finding("RES001", "error", "src/y.py", 1, 1, "leak", "ctx")
        out = render_text([], stale=[e])
        assert "stale baseline entry" in out
