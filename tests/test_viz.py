"""HTML attention rendering conventions."""

import html

import numpy as np
import pytest

from codesum import viz
from codesum.decoder import StepRecord
from codesum.viz import ALPHA_RGB, KAPPA_RGB, render_attention_html


def _blend(rgb, weight):
    """One colour per call, as the page was once coloured: the oracle."""
    w = min(max(weight, 0.0), 1.0)
    r, g, b = (round(255 + (c - 255) * w) for c in rgb)
    return f"rgb({r},{g},{b})"


def per_token_page(surface, steps, title, oov_tokens):
    """The page built one token and one ``_blend`` at a time."""
    def token_row(weights, rgb):
        return "".join(
            f'<span class="{"tok oov" if tok in oov_tokens else "tok"}" '
            f'style="background-color:{_blend(rgb, float(w))}">{html.escape(tok)}</span>'
            for tok, w in zip(surface, weights))

    rows = []
    for i, step in enumerate(steps):
        label = step.token if step.token != "</s>" else "End"
        peak = float(np.max(step.alpha)) if len(step.alpha) else 0.0
        alpha_norm = step.alpha / peak if peak > 0 else step.alpha
        lam = "" if step.lam is None else f"&lambda;={step.lam:.3f}"
        span = 2 if step.kappa is not None else 1
        rows.append(
            f'<tr class="sep"><td class="label" rowspan="{span}">m{i + 1}: '
            f"{html.escape(label)}</td>"
            f'<td class="head">&alpha;</td>'
            f"<td>{token_row(alpha_norm, ALPHA_RGB)}</td>"
            f'<td rowspan="{span}">{lam}</td></tr>')
        if step.kappa is not None:
            rows.append(
                f'<tr><td class="head">&kappa;</td>'
                f"<td>{token_row(step.kappa, KAPPA_RGB)}</td></tr>")
    return viz._PAGE.format(title=html.escape(title), rows="\n".join(rows))


def colour(rgb, weight):
    return viz._token_row([("", "")], np.array([weight]), rgb)


def record(token, alpha, kappa=None, lam=None):
    return StepRecord(token=token,
                      alpha=np.asarray(alpha, dtype=float),
                      kappa=None if kappa is None else np.asarray(kappa, dtype=float),
                      lam=lam)


def test_linear_color_interpolation():
    assert colour((240, 180, 0), 0.0) == "rgb(255,255,255)"
    assert colour((240, 180, 0), 1.0) == "rgb(240,180,0)"
    # halfway is the arithmetic midpoint (linear in the weight)
    assert colour((100, 55, 255), 0.5) == "rgb(178,155,255)"
    assert colour((0, 0, 0), 2.0) == "rgb(0,0,0)"  # clamped


@pytest.mark.parametrize("case", ["random", "halves", "outside"])
def test_page_equals_per_token_blend(rng, case):
    surface = ["<S>", "a&b", "x", "get", "\"q\"", "</S>"] * 3
    n = len(surface)
    if case == "random":
        weights = [rng.random(n) for _ in range(8)]
    elif case == "halves":
        # 255 + (c - 255) * w lands on exact halves for these weights and
        # both heads' channels, so rounding goes both ways.
        weights = [np.resize([0.5, 0.25, 0.75, 0.125, 1.0, 0.0], n),
                   np.resize([0.5, 0.375, 0.625, 0.875], n)] * 4
    else:
        weights = [rng.normal(0.5, 2.0, n),
                   np.resize([-1.0, 1.5, -0.0, np.inf, -np.inf, 1e300], n)] * 4
    steps = [record("get" if i else "</s>", weights[2 * i], weights[2 * i + 1],
                    float(rng.random()))
             for i in range(4)]
    steps.append(record("x", weights[0], None, None))  # a conv-model step
    oov = {"a&b", "x"}
    assert render_attention_html(surface, steps, "get<x>", oov) == \
        per_token_page(surface, steps, "get<x>", oov)


def test_rows_and_lambda_layout():
    surface = ["<S>", "{", "x", "}", "</S>"]
    steps = [
        record("get", [0.1, 0.2, 0.4, 0.2, 0.1], [0.0, 0.0, 1.0, 0.0, 0.0], 0.42),
        record("</s>", [0.2] * 5, [0.2] * 5, 0.07),
    ]
    page = render_attention_html(surface, steps, "get", oov_tokens={"x"})
    assert page.count("&alpha;") == 2
    assert page.count("&kappa;") == 2
    assert "&lambda;=0.420" in page and "&lambda;=0.070" in page
    assert "End" in page and "m2" in page
    # alpha is rescaled by its max: the peak token renders fully saturated
    assert "rgb(240,180,0)" in page
    # kappa is plotted raw: its peak uses the raw weight 1.0
    assert "rgb(130,60,180)" in page


def test_oov_underline_and_escaping():
    surface = ["<S>", "a&b", "x", "</S>"]
    steps = [record("x", [0.5, 0.5, 1.0, 0.1], None, None)]
    page = render_attention_html(surface, steps, "x", oov_tokens={"a&b"})
    assert 'class="tok oov"' in page
    assert "a&amp;b" in page
    assert "&lt;S&gt;" in page
    assert "&kappa;" not in page  # no copy head, no kappa row
