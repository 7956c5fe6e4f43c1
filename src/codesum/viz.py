"""Static HTML rendering of per-step attention over a snippet.

One row per generated subtoken (end-of-sequence included): the snippet
tokens tinted by the attention weights.  The attention vector is
normalized by its max before coloring since its mass tends to spread;
the copy vector is peaky and is plotted as-is.  Color intensity is
linear in the weight.  Out-of-vocabulary tokens are underlined.
"""

from __future__ import annotations

import html
from typing import Sequence

import numpy as np

from .corpus.vocabulary import NAME_END
from .decoder import StepRecord

ALPHA_RGB = (240, 180, 0)    # attention head
KAPPA_RGB = (130, 60, 180)   # copy head

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>attention: {title}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; }}
td {{ padding: 4px 10px; vertical-align: top; }}
td.label {{ font-weight: bold; white-space: nowrap; }}
td.head {{ color: #666; font-size: 85%; white-space: nowrap; }}
span.tok {{ padding: 1px 3px; margin: 0 1px; border-radius: 3px;
            font-family: monospace; white-space: pre; }}
span.oov {{ text-decoration: underline; }}
tr.sep td {{ border-top: 1px solid #ccc; }}
</style>
</head>
<body>
<h2>{title}</h2>
<table>
{rows}
</table>
</body>
</html>
"""


def _token_row(cells: Sequence[tuple[str, str]], weights: np.ndarray,
               rgb: tuple[int, int, int]) -> str:
    """Each cell's span opening and closing, around its colour: the weight,
    clamped to [0, 1], blends white into ``rgb``, rounding half to even."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, 1.0)
    colours = np.rint(255 + (np.array(rgb) - 255) * w[:, None]).astype(int).tolist()
    return "".join(f"{head}rgb({r},{g},{b}){tail}"
                   for (head, tail), (r, g, b) in zip(cells, colours))


def render_attention_html(surface: Sequence[str], steps: Sequence[StepRecord],
                          title: str, oov_tokens: set[str]) -> str:
    """A standalone page for one suggestion's decoding trace."""
    cells = [(f'<span class="{"tok oov" if tok in oov_tokens else "tok"}" '
              'style="background-color:', f'">{html.escape(tok)}</span>') for tok in surface]
    rows: list[str] = []
    for i, step in enumerate(steps):
        label = step.token if step.token != NAME_END else "End"
        alpha = step.alpha
        peak = float(np.max(alpha)) if len(alpha) else 0.0
        alpha_norm = alpha / peak if peak > 0 else alpha
        lam = "" if step.lam is None else f"&lambda;={step.lam:.3f}"
        span = 2 if step.kappa is not None else 1
        rows.append(
            f'<tr class="sep"><td class="label" rowspan="{span}">m{i + 1}: '
            f"{html.escape(label)}</td>"
            f'<td class="head">&alpha;</td>'
            f"<td>{_token_row(cells, alpha_norm, ALPHA_RGB)}</td>"
            f'<td rowspan="{span}">{lam}</td></tr>')
        if step.kappa is not None:
            rows.append(
                f'<tr><td class="head">&kappa;</td>'
                f"<td>{_token_row(cells, step.kappa, KAPPA_RGB)}</td></tr>")
    return _PAGE.format(title=html.escape(title), rows="\n".join(rows))
