"""SVG charts: well-formed XML for any text, and data that parses back."""

from xml.etree import ElementTree

from qsep.svg import line_chart, parse_chart

SVG = "{http://www.w3.org/2000/svg}"


def test_every_text_is_escaped_and_each_name_parses_back():
    # a raw '"' ended the data-series attribute early and a raw '<' or '&'
    # made the file unreadable as XML
    names = ['a"b<c&d', "x&amp;y", "q > 0"]
    series = [(name, [1.0, 2.0, 4.0], [3.0, 5.0, float(i)]) for i, name in enumerate(names)]
    svg = line_chart(series, title="<means> & more", xlabel='"n"', ylabel="q>0")
    root = ElementTree.fromstring(svg)
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert {"<means> & more", '"n"', "q>0", *names} <= set(texts)
    assert parse_chart(svg) == {name: (xs, ys) for name, xs, ys in series}


def test_plain_text_is_written_as_given():
    svg = line_chart([("walks", [1.0, 4.0], [2.0, 8.0])], title="query scaling",
                     xlabel="n", ylabel="mean queries")
    assert 'data-series="walks"' in svg and ">query scaling</text>" in svg
