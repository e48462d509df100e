"""The line reader shared by every text input: blank and ``#`` lines are
skipped, and a malformed line raises ``ParseError`` naming it.  Every
input error a command reads exits 2 with that message on stderr."""

import pytest

from spinz import (
    GraphError,
    GraphParseError,
    ParseError,
    WeightError,
    WeightParseError,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    parse_campaign_config,
    parse_cover_family,
    parse_graph,
    parse_lists,
    parse_weights,
)
from spinz.cli import main

C4 = cycle_graph(4)
PARSERS = {
    "graph": parse_graph,
    "weights": lambda text: parse_weights(text, C4).to_text(),  # systems have no ==
    "lists": lambda text: parse_lists(text, C4, complete_graph(3)),
    "families": parse_cover_family,
    "config": parse_campaign_config,
}
SKIPPED = "  # a comment\n   \n"  # lines 1 and 2


@pytest.mark.parametrize(
    "kind, good, bad, message",
    [
        ("graph", "p 2 1\ne 0 1\n", "e 0 x", "edge endpoints must be integers"),
        ("weights", "m 2\nvw 0 1 3/2\n", "vw 0 x 1", "malformed vw line 'vw 0 x 1'"),
        ("lists", "l 0 2\nl 3\n", "l 1 x", "ids must be integers"),
        ("families", "t 2 1\nA 0 2\nB 1\n", "A 0 x", "A takes integers"),
        ("config", "trials = 3\nseed = 4\n", "n_max = x", "n_max takes an integer, got 'x'"),
    ],
)
def test_every_parser_skips_blank_and_comment_lines_and_names_a_bad_line(kind, good, bad, message):
    parse = PARSERS[kind]
    head, rest = good.split("\n", 1)
    assert parse(SKIPPED + good) == parse(good)
    assert parse(head + "\n" + SKIPPED + rest) == parse(good)
    with pytest.raises(ParseError) as info:
        parse(head + "\n# between\n" + bad + "\n")
    assert info.value.line == 3
    assert str(info.value) == f"line 3: {message}"


def test_graph_and_weight_parse_errors_keep_their_families():
    with pytest.raises(GraphParseError) as graph_info:
        parse_graph("p 2 1\ne 0 0\n")
    assert isinstance(graph_info.value, GraphError) and isinstance(graph_info.value, ParseError)
    with pytest.raises(WeightParseError) as weight_info:
        parse_weights("m 2\nvw 9 1 1\n", complete_bipartite(1, 1))
    assert isinstance(weight_info.value, WeightError) and isinstance(weight_info.value, ParseError)
    assert (graph_info.value.line, weight_info.value.line) == (2, 2)


# Each input kind, the command that reads it from bad.<kind>, and every
# error its parser (or the value it builds) raises: (kind, text, message).
# Line numbers count from 1; a message without one is a whole-input check.
COMMANDS = {
    "graph": "compute bad.graph c4.weights",
    "weights": "compute c4.graph bad.weights",
    "lists": "listhom c4.graph k3.graph --lists bad.lists",
    "families": "bound thm5 c4.graph --target k3.graph --families bad.families",
    "config": "search bad.config",
}
MALFORMED = [
    ("graph", "e 0 1\n", "line 1: expected header 'p <n> <m>'"),
    ("graph", "p x 1\n", "line 1: header counts must be integers"),
    ("graph", "p 0 0\n", "line 1: vertex count must be >= 1, got 0"),
    ("graph", "p 2 -1\n", "line 1: edge count must be >= 0, got -1"),
    ("graph", "p 2 1\nf 0 1\n", "line 2: expected 'e <u> <v>', got 'f 0 1'"),
    ("graph", "p 2 1\ne 1 1\n", "line 2: loop at vertex 1"),
    ("graph", "p 2 1\ne 0 2\n", "line 2: vertex id out of range [0,2)"),
    ("graph", "p 2 2\ne 0 1\ne 1 0\n", "line 3: duplicate edge (0,1)"),
    ("graph", "p 3 1\ne 0 1\ne 1 2\n", "line 3: more than the declared 1 edges"),
    ("graph", "# nothing\n", "line 1: empty input, expected header 'p <n> <m>'"),
    ("graph", "p 3 2\ne 0 1\n", "line 1: declared 2 edges but found 1"),
    ("weights", "vw 0 1 1\n", "line 1: expected header 'm <spins>'"),
    ("weights", "m x\n", "line 1: spin count must be an integer"),
    ("weights", "m 0\n", "line 1: spin count must be >= 1, got 0"),
    ("weights", "m 2\nvw 0 1\n", "line 2: expected 'vw <v> <i> <value>'"),
    ("weights", "m 2\nvw 0 1 1/x\n", "line 2: malformed vw line 'vw 0 1 1/x'"),
    ("weights", "m 2\nvw 9 1 1\n", "line 2: vertex 9 out of range [0,4)"),
    ("weights", "m 2\nvw 0 3 1\n", "line 2: spin 3 out of range 1..2"),
    ("weights", "m 2\nvw 0 1 -1\n", "line 2: negative weight -1"),
    ("weights", "m 2\nvw 0 1 1\nvw 0 1 2\n", "line 3: duplicate entry for vertex 0 spin 1"),
    ("weights", "m 2\new 0 1 1 1\n", "line 2: expected 'ew <u> <v> <i> <j> <value>'"),
    ("weights", "m 2\new 0 1 1 x 1\n", "line 2: malformed ew line 'ew 0 1 1 x 1'"),
    ("weights", "m 2\new 0 1 2 1 1\n", "line 2: spin pair must be canonical i <= j, got (2,1)"),
    ("weights", "m 2\new 0 1 1 3 1\n", "line 2: spin pair (1,3) out of range 1..2"),
    ("weights", "m 2\new 0 2 1 1 1\n", "line 2: (0,2) is not an edge of the graph"),
    ("weights", "m 2\new 0 1 1 1 -1/2\n", "line 2: negative weight -1/2"),
    ("weights", "m 2\new 0 1 1 1 1\new 1 0 1 1 2\n", "line 3: duplicate entry for edge (1,0) pair (1,1)"),
    ("weights", "m 2\nxw 0 1\n", "line 2: unknown directive 'xw'"),
    ("weights", "\n", "line 1: empty input, expected header 'm <spins>'"),
    ("lists", "l\n", "line 1: expected 'l <v> <targets...>'"),
    ("lists", "l 1 x\n", "line 1: ids must be integers"),
    ("lists", "l 7 0\n", "line 1: vertex 7 out of range"),
    ("lists", "l 0 1\nl 0 2\n", "line 2: duplicate list for vertex 0"),
    ("lists", "l 0 5\n", "line 1: target 5 out of range"),
    ("families", "C 0\n", "line 1: unknown directive 'C'"),
    ("families", "t 1 1\nA 0 x\n", "line 2: A takes integers"),
    ("families", "t 1\n", "line 1: expected 't <t1> <t2>'"),
    ("families", "t 1 1\nt 1 1\n", "line 2: duplicate 't' header"),
    ("families", "t 1 1\nA 0\nA 2\n", "line 3: A line without a matching B line"),
    ("families", "t 1 1\nB 1\n", "line 2: B line without a preceding A line"),
    ("families", "A 0\nB 1\n", "line 1: missing 't <t1> <t2>' header"),
    ("families", "t 1 1\nA 0\n", "line 2: trailing A line without a matching B line"),
    ("families", "t 0 1\nA 0\nB 1\n", "line 1: cover multiplicities must be >= 1"),
    ("config", "trials 3\n", "line 1: expected 'key = value'"),
    ("config", "seed = 1\nseed = 2\n", "line 2: duplicate config key 'seed'"),
    ("config", "n_max = x\n", "line 1: n_max takes an integer, got 'x'"),
    ("config", "connected = maybe\n", "line 1: connected takes true/false/yes/no/1/0, got 'maybe'"),
    ("config", "colour = red\n", "line 1: unknown config key 'colour'"),
    ("config", "trials = 0\n", "trials must be >= 1"),
    ("config", "bounds = thm3, conj9\n", "unknown bound name 'conj9'"),
    ("config", "weights = heavy\n", "unknown weight style 'heavy'"),
    ("config", "source = atlas\n", "unknown graph source 'atlas'"),
]


@pytest.mark.parametrize("kind, text, message", MALFORMED)
def test_every_input_error_exits_two_naming_its_line(tmp_path, monkeypatch, capsys, kind, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4.graph").write_text(C4.to_text())
    (tmp_path / "k3.graph").write_text(complete_graph(3).to_text())
    (tmp_path / "c4.weights").write_text("m 2\n")
    (tmp_path / f"bad.{kind}").write_text(text)
    assert main(COMMANDS[kind].split()) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
