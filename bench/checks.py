"""Output checks against the paper's closed forms.

Every check returns None when the output is right and a one-line reason
otherwise. The closed forms are computed here, independently of the program:

- certify: i_total = 2 (log2 d - H(p (d-1) / d)), where
  H(D) = -(1-D) log2(1-D) - D log2(D / (d-1)) is the disturbance entropy;
- qss: the same form with D = (1-p) D_cloner + p (d-1) / d, within a
  tolerance derived from the sifted round counts;
- derive: the two forms are surjective and come from one stabilizer element
  of the Fourier-measured colour class.
"""

from __future__ import annotations

import itertools
import json
import math
import os

I_TOTAL_TOL = 1e-9
JSONL_KEYS = ("round", "ma", "mb", "a", "b", "sifted")
TRANSCRIPT_CHUNK = 2048  # lines parsed at once


def disturbance_entropy(D, d):
    out = 0.0
    if D > 0.0:
        out -= D * math.log2(D / (d - 1))
    if D < 1.0:
        out -= (1.0 - D) * math.log2(1.0 - D)
    return out


def i_total_closed(d, p):
    return 2.0 * (math.log2(d) - disturbance_entropy(p * (d - 1) / d, d))


def mi_tolerance(d, error, n):
    """Six standard deviations of the plug-in information of one sifted setting, plus bias.

    The table has uniform marginals and conditional error ``error`` spread
    evenly over the d-1 wrong outcomes. The bias term bounds the chi-square
    excess of the empirical marginals.
    """
    values = [(1.0 - error, math.log2(d * (1.0 - error)) if error < 1.0 else 0.0)]
    if error > 0.0:
        values.append((error, math.log2(d * error / (d - 1))))
    mean = sum(w * x for w, x in values)
    var = sum(w * x * x for w, x in values) - mean * mean
    return 6.0 * math.sqrt(max(var, 0.0) / n) + 10.0 * d * d / (2.0 * n * math.log(2))


def _exit_refused(out):
    if out.exc is not None:
        return f"traceback: {type(out.exc).__name__}: {out.exc}"
    if out.code != 2:
        return f"exit {out.code}, expected 2"
    if not out.stderr.startswith("error:") or "Traceback" in out.stderr:
        return f"unexpected stderr {out.stderr[:80]!r}"
    return None


def _exit_ok(out):
    if out.exc is not None:
        return f"traceback: {type(out.exc).__name__}: {out.exc}"
    if out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()[:120]}"
    return None


def check_certify(req, out):
    if req.expect["exit"] == 2:
        return _exit_refused(out)
    bad = _exit_ok(out)
    if bad:
        return bad
    try:
        doc = json.loads(out.stdout)
        i_per, i_total = doc["i_per_setting"], doc["i_total"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable certify output: {exc}"
    d, p = req.expect["d"], req.expect["p"]
    want = i_total_closed(d, p)
    if abs(i_total - want) > I_TOTAL_TOL:
        return f"i_total {i_total!r} differs from closed form {want!r}"
    if len(i_per) != 2 or any(abs(x - want / 2) > I_TOTAL_TOL for x in i_per):
        return f"i_per_setting {i_per!r} differs from {want / 2!r}"
    return None


def _check_transcript(path, rounds, sifted):
    """Parsed a chunk of lines at a time, so the check never holds the whole transcript."""
    counts, k = [0, 0], 0
    with open(path, encoding="utf-8") as fh:
        while chunk := list(itertools.islice(fh, TRANSCRIPT_CHUNK)):
            if not chunk[-1].endswith("\n"):
                return f"transcript line {k + len(chunk) - 1} does not end in a newline"
            try:  # a line that is not one JSON object breaks the parse or the count
                records = json.loads("[" + ",".join(chunk) + "]")
                rows = [[rec[key] for key in JSONL_KEYS] for rec in records]
            except (ValueError, KeyError, TypeError):
                rows = None
            if rows is None or len(rows) != len(chunk):
                return f"transcript has a line that does not parse in lines {k}-{k + len(chunk) - 1}"
            for index, ma, mb, _a, _b, is_sifted in rows:
                if index != k or is_sifted != (ma == mb):
                    return f"transcript line {k} is inconsistent"
                if is_sifted:
                    counts[ma - 1] += 1
                k += 1
    if k != rounds:
        return f"transcript has {k} lines, expected {rounds}"
    if counts != list(sifted):
        return f"transcript sifted counts {counts} differ from reported {sifted}"
    return None


def check_qss(req, out):
    bad = _exit_ok(out)
    if bad:
        return bad
    e = req.expect
    try:
        doc = json.loads(out.stdout)
        i_hat, sifted = doc["i_hat_total"], doc["sifted_rounds"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable qss output: {exc}"
    d = e["d"]
    error = (1.0 - e["p"]) * e["disturbance"] + e["p"] * (d - 1) / d
    want = 2.0 * (math.log2(d) - disturbance_entropy(error, d))
    tol = sum(mi_tolerance(d, error, n) for n in sifted)
    if abs(i_hat - want) > tol:
        return f"i_hat_total {i_hat!r} is {abs(i_hat - want):.3g} from {want!r} (tolerance {tol:.3g})"
    if out.path is not None:
        return _check_transcript(out.path, e["rounds"], sifted)
    return None


def _surjective(coeffs, d):
    return bool(coeffs) and math.gcd(*coeffs, d) == 1


def check_setting(graph, side_a, setting):
    """Surjective forms from one stabilizer element of the Fourier class."""
    n, d = graph["n"], graph["d"]
    neighbours = {v: set() for v in range(1, n + 1)}
    for i, j in graph["edges"]:
        neighbours[i].add(j)
        neighbours[j].add(i)
    fourier = {v for v, basis in setting.local_bases.items() if basis == "fourier"}
    if set(setting.local_bases) != set(neighbours) or any(neighbours[v] & fourier for v in fourier):
        return f"m={setting.m}: Fourier-measured vertices are not one colour class"
    if list(setting.a_vertices) != sorted(side_a) or len(setting.fa_coeffs) != len(side_a):
        return f"m={setting.m}: A-side vertices {setting.a_vertices} differ from {side_a}"
    if not (_surjective(setting.fa_coeffs, d) and _surjective(setting.fb_coeffs, d)):
        return f"m={setting.m}: form is not surjective"
    coeff = dict(zip(setting.a_vertices, setting.fa_coeffs))
    coeff.update((v, (-c) % d) for v, c in zip(setting.b_vertices, setting.fb_coeffs))
    n_vec = {a: (-coeff[a]) % d for a in fourier}
    if not any(n_vec.values()):
        return f"m={setting.m}: empty stabilizer combination"
    for v in set(neighbours) - fourier:
        if coeff[v] != sum(n_vec[a] for a in neighbours[v]) % d:
            return f"m={setting.m}: vertex {v} coefficient is not the Fourier-neighbour sum"
    return None


def check_derive(req, out):
    if out.exc is not None:
        return f"raised {type(out.exc).__name__}: {out.exc}"
    settings = out.value
    if [s.m for s in settings] != [1, 2]:
        return "settings are not m=1 and m=2"
    fourier = [frozenset(v for v, b in s.local_bases.items() if b == "fourier") for s in settings]
    if fourier[0] & fourier[1]:
        return "the two settings share Fourier-measured vertices"
    for s in settings:
        bad = check_setting(req.expect["graph"], req.expect["side_a"], s)
        if bad:
            return bad
    return None


CHECKS = {
    "certify": check_certify,
    "qss": check_qss,
    "derive": check_derive,
}


def check(req, out):
    """Reason the request failed, or None. Output files are read, never trusted to exist."""
    if out.path is not None and not os.path.exists(out.path) and out.code == 0:
        return f"{req.command} wrote no {out.path}"
    return CHECKS[req.command](req, out)
