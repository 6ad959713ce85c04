"""The spoiler check and redaction against their per-token reference loops, and
the number of token patterns they compile."""

from __future__ import annotations

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from policygym import load_package, packages, synthesis
from policygym.executor import open_environment_at
from policygym.fixtures import corporate_travel as ct
from policygym.packages import find_spoiler, token_pattern
from policygym.synthesis import _redact, build_redaction_list, explore_episode, project_user_view


# --- reference: one pattern per token, no screen ------------------------------------

def reference_find_spoiler(task_text, tool_names, redaction_list):
    for token in list(tool_names) + list(redaction_list):
        if token and token_pattern(token).search(task_text):
            return token
    return None


def reference_redact(text, tokens):
    for token in sorted(tokens, key=len, reverse=True):
        if token:
            text = token_pattern(token).sub("[redacted]", text)
    return text


# ASCII letters and word characters, separators, regex metacharacters, and the
# non-ASCII letters that IGNORECASE folds onto ASCII ones (KELVIN SIGN, LONG S,
# dotted and dotless I) or that fold to more than one letter elsewhere (é, ß).
ALPHABET = string.ascii_letters + string.digits + "_ -.[](*" + "\u212a\u017f\u0130\u0131\u00e9\u00df"
# ASCII letters and the non-ASCII letters IGNORECASE matches them with, both ways
TO_NON_ASCII = str.maketrans("kKsSiI", "\u212a\u212a\u017f\u017f\u0131\u0130")
TO_ASCII = str.maketrans("\u212a\u017f\u0131\u0130", "ksiI")
spellings = st.sampled_from([str, str.swapcase, lambda piece: piece.translate(TO_NON_ASCII),
                             lambda piece: piece.translate(TO_ASCII)])
fragments = st.text(st.one_of(st.sampled_from("kKsSiI"), st.sampled_from(ALPHABET)), max_size=5)
words = st.builds(lambda spell, parts: spell("_".join(parts)),
                  spellings, st.lists(fragments, min_size=1, max_size=3))
tokens = st.one_of(words, st.just(""), st.just("redacted"), st.just("[redacted]"))


@st.composite
def texts_and_tokens(draw):
    """A token list and a text spliced from its tokens, each respelled in
    another case or with(out) non-ASCII letters now and then, and from free
    words, so that matches are common."""
    listed = draw(st.lists(tokens, min_size=1, max_size=6))
    pieces = draw(st.lists(st.one_of(st.sampled_from(listed), words), min_size=1, max_size=8))
    pieces = [draw(spellings)(piece) for piece in pieces]
    return draw(st.sampled_from([" ", " ", "-", ""])).join(pieces), listed


SPOILERS = settings(max_examples=200, deadline=None, derandomize=True)
# letters that IGNORECASE folds across the ASCII boundary, in the text or in the
# token, a redaction mark that a shorter token matches, and an ASCII token in a
# text that an em dash makes non-ASCII
EDGES = [("\u212a", ["k"]), ("k", ["\u212a"]), ("\u017f", ["S"]), ("s", ["\u017f"]),
         ("\u0130", ["i"]), ("I", ["\u0130"]), ("\u0131", ["I"]), ("i", ["\u0131"]),
         ("the booking_id", ["booking_id", "redacted"]),
         ("book it \u2014 Booking_\u0130d", ["booking_id", "trip"])]


def with_edges(*rest):
    """The property run on every case of EDGES as well."""
    def apply(test):
        for case in EDGES:
            test = example(case, *rest)(test)
        return test
    return apply


@with_edges(1)
@SPOILERS
@given(texts_and_tokens(), st.integers(min_value=0, max_value=6))
def test_find_spoiler_equals_the_per_token_loop(case, split):
    text, listed = case
    tools, redactions = listed[:split], listed[split:]
    assert find_spoiler(text, tools, redactions) == reference_find_spoiler(text, tools, redactions)


@with_edges()
@SPOILERS
@given(texts_and_tokens())
def test_redact_equals_the_per_token_loop(case):
    text, listed = case
    assert _redact(text, tuple(listed)) == reference_redact(text, tuple(listed))


def test_the_edges_match():
    """Each case of EDGES is a match of its first token."""
    for text, listed in EDGES:
        assert reference_find_spoiler(text, listed, []) == listed[0]


def test_an_inserted_redaction_mark_is_redacted_again():
    """``redacted`` occurs only after the longer token has been replaced."""
    tokens = ("booking_id", "redacted")
    assert _redact("the booking_id", tokens) == reference_redact("the booking_id", tokens)
    assert _redact("the booking_id", tokens) == "the [[redacted]]"


# --- count guard: patterns compile only where their token occurs ---------------------

@pytest.fixture
def pattern_calls(monkeypatch):
    """Every ``token_pattern`` call, counted in both modules that look it up."""
    calls = []

    def counting(token):
        calls.append(token)
        return token_pattern(token)

    for module in (packages, synthesis):
        monkeypatch.setattr(module, "token_pattern", counting)
    return calls


def test_loading_the_fixture_compiles_no_pattern(fixture_dir, pattern_calls):
    load_package(fixture_dir)
    assert pattern_calls == []


def test_projecting_the_fixture_episode_compiles_no_pattern(fixture_dir, pattern_calls):
    bundle = ct.build_bundle()
    origin = ct.build_origin_snapshot(bundle)
    port = synthesis.StubGenerationPort(ct.canned_generation_outputs())
    with open_environment_at(bundle, origin) as env:
        episode = explore_episode(env, port, port, ct.LIMITS)
    tokens = build_redaction_list(bundle, episode, ct.REDACTION_LIST)
    pattern_calls.clear()
    text = project_user_view(episode, tokens)
    assert text == (fixture_dir / "task.md").read_text("utf-8")
    assert pattern_calls == []


def test_a_text_naming_one_tool_compiles_one_pattern(travel_pkg, pattern_calls):
    tools = [t.name for t in travel_pkg.env.tool_catalog]
    for dash in ("-", "\u2014"):  # an em dash makes the text non-ASCII
        pattern_calls.clear()
        text = travel_pkg.task_description + f"{dash} Please run Transfer_To_Human_Agents.\n"
        assert find_spoiler(text, tools, travel_pkg.redaction_list) == "transfer_to_human_agents"
        assert pattern_calls == ["transfer_to_human_agents"]
