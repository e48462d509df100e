"""The line reader shared by every text input: blank and ``#`` lines are
skipped, and a malformed line raises ``ParseError`` naming it."""

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
