"""Command-line surface: certification, attack analysis and protocol simulation.

Exit codes: 0 success, 1 invariant/acceptance failure, 2 input validation,
3 correlation-form derivation failure.  CSV outputs carry a leading
``# manifest: {...}`` comment followed by a header row; JSON outputs embed
the manifest as a field.  Files are written atomically (temp + rename).
"""

from __future__ import annotations

import datetime
import io
import json
import os
import tempfile

import click
import numpy as np

from . import __version__
from .cloner import dirichlet_gamma, no_sharing_sum
from .graphs import Bipartition, NotTwoColorable, make_star, parse_graph
from .protocol import InsufficientData, ProtocolConfig, estimate_rates, run_protocol
from .registers import MAX_STATE_BYTES
from .schmidt import NoCorrelationForm
from .steering import (
    critical_disturbance,
    derive_both_settings,
    disturbance_entropy,
    key_rate_scan,
    noise_threshold,
    steering_statistic,
)
from . import verify as verify_mod

EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_DERIVATION = 3

# Peak memory per unit of a command-line size, measured as the ru_maxrss slope
# (2-CPU x86-64 Linux, numpy 2) and rounded up: `qss --out` grew by 12 bytes a
# round from 2^18 to 2^21 rounds at d=2 (at most 12.8 between doublings) and by
# 17 at d=257 (at most 19.5), whose outcomes take two bytes; `fig4 --d 2` by 34
# bytes an output row from 2^18 to 2^22 rows (at most 37.2 between doublings):
# the p grid and the (p, i_total, r_lower) rows, 32 bytes, plus one chunk.
QSS_BYTES_PER_ROUND = 24
FIG4_BYTES_PER_ROW = 48
# Peak memory per entry of a d x d joint table (its characteristic function,
# DFT, noisy mix and entropies), measured as the ru_maxrss slope over d on the
# same machine and rounded up: 47.8 bytes an entry for `certify`'s two tables
# from d=1024 to 2048, 48.3 for `qss`'s four from d=1024 to 1448.
TABLE_BYTES_PER_ENTRY = 64
# Peak memory per vertex or edge of a graph, the ru_maxrss slope of `certify
# --partition 1` at d=3 rounded up: 347-358 bytes between stars of 10^5 to 4*10^5
# vertices, 304 between such chains, 281 between 316^2 and 632^2 grids (359 MB).
GRAPH_BYTES_PER_ELEMENT = 512
# Output rows formatted and written at a time by `fig4`.
CSV_CHUNK_ROWS = 4096


def _manifest(command: str, params: dict, seed=None) -> dict:
    return {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _atomic_write(path: str, write) -> None:
    """Call ``write(handle)`` on a binary temp file beside ``path``, then rename it into place.

    An OSError names ``path``, not the hidden temp file, which is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks to ``out``, each encoded once, or echo them to stdout."""
    if out:
        _atomic_write(out, lambda handle: handle.writelines(chunk.encode() for chunk in chunks))
    else:
        for chunk in chunks:
            click.echo(chunk, nl=False)


def _csv_document(manifest: dict, header: list, rows: list) -> str:
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(x) for x in row) + "\n")
    return buf.getvalue()


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _refuse(reason: str, code: int = EXIT_VALIDATION):
    click.echo(f"error: {reason}", err=True)
    raise SystemExit(code)


def _bound(option: str, value: int, n_bytes: int) -> None:
    """Refuse an option value that needs more than MAX_STATE_BYTES (``n_bytes``) of memory."""
    if n_bytes > MAX_STATE_BYTES:
        _refuse(
            f"{option} {value} needs about {n_bytes} bytes, "
            f"over the {MAX_STATE_BYTES}-byte limit"
        )


def _check_seed(seed: int) -> None:
    """Refuse a seed that numpy's generators would reject with a traceback."""
    if seed < 0:
        _refuse(f"--seed {seed} is negative")


class _RefusingGroup(click.Group):
    """Turns the library's refusals, raised by any command, into a message and exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (NotTwoColorable, InsufficientData, OSError) as exc:
            _refuse(f"{type(exc).__name__}: {exc}")
        except NoCorrelationForm as exc:
            _refuse(f"{type(exc).__name__}: {exc}", EXIT_DERIVATION)


def _load_graph(path: str, tables: int):
    """The file's graph and d, refused before anything lists its vertices or builds its ``tables`` d x d tables."""
    try:
        with open(path, encoding="utf-8") as handle:
            g, d = parse_graph(handle.read())
    except ValueError as exc:
        _refuse(str(exc))
    size = g.n_vertices + len(g.edges)
    _bound("graph n + |E|", size, GRAPH_BYTES_PER_ELEMENT * size)
    _bound("d", d, TABLE_BYTES_PER_ENTRY * tables * d * d)
    return g, d


def _parse_partition(g, text: str | None) -> Bipartition:
    if text is None:
        side_a = {1}  # matches the worked three-qubit star example
    else:
        try:
            side_a = {int(tok) for tok in text.split(",") if tok.strip()}
        except ValueError:
            _refuse(f"bad partition list {text!r}")
    try:
        return Bipartition.from_side_a(g, side_a)
    except ValueError as exc:
        _refuse(str(exc))


def _parse_d_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or any(d < 2 for d in values):
        _refuse(f"bad dimension list {text!r}")
    return values


@click.group(cls=_RefusingGroup)
@click.version_option(__version__)
def main():
    """Steering certification and key-rate analysis for qudit graph states."""


@main.command()
@click.argument("graph_file", type=click.Path())
@click.option("--partition", default=None, help="Comma-separated A-side vertex list (default: 1).")
@click.option("--p", default=0.0, show_default=True, help="White-noise intensity.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", default=None, type=click.Path(), help="Output file (default: stdout).")
def certify(graph_file, partition, p, fmt, out):
    """Certify steering of a (noisy) graph state from a graph file."""
    g, d = _load_graph(graph_file, 2)  # one table per setting
    part = _parse_partition(g, partition)
    if not 0.0 <= p <= 1.0:
        _refuse("--p must be in [0, 1]")
    report = steering_statistic(g, d, derive_both_settings(g, d, part), part, p)
    manifest = _manifest(
        "certify", {"graph_file": graph_file, "partition": list(part.a_vertices), "p": p}
    )
    payload = {
        "i_per_setting": list(report.i_per_setting),
        "i_total": report.i_total,
        "threshold": report.threshold,
        "steerable": report.steerable,
        "margin": report.margin,
        "manifest": manifest,
    }
    if fmt == "json":
        _emit([json.dumps(payload, indent=2) + "\n"], out)
    else:
        header = ["i_setting_1", "i_setting_2", "i_total", "threshold", "steerable", "margin"]
        row = (
            *report.i_per_setting, report.i_total, report.threshold, report.steerable, report.margin
        )
        _emit([_csv_document(manifest, header, [row])], out)


@main.command()
@click.option("--d", "d_list", default="2,3,5", show_default=True, help="Comma-separated dimensions.")
@click.option("--n", default=3, show_default=True, help="Number of qudits (star graph).")
@click.option("--p-max", default=1.0, show_default=True, help="Upper end of the noise grid.")
@click.option("--steps", default=21, show_default=True, help="Grid points per dimension.")
@click.option("--out", default=None, type=click.Path())
def fig4(d_list, n, p_max, steps, out):
    """Key-rate lower bound versus white noise (CSV: d,N,p,i_total,r_lower)."""
    dims = _parse_d_list(d_list)
    if n < 2 or steps < 1 or not 0.0 <= p_max <= 1.0:
        _refuse("bad ranges")
    _bound("--steps", steps, FIG4_BYTES_PER_ROW * steps * len(dims))
    _bound("--n", n, GRAPH_BYTES_PER_ELEMENT * (2 * n - 1))  # star(n) has n - 1 edges
    _bound("--d", max(dims), TABLE_BYTES_PER_ENTRY * 2 * max(dims) ** 2)
    g = make_star(n)
    part = Bipartition.from_side_a(g, {1})
    grid = np.linspace(0.0, p_max, steps)
    manifest = _manifest("fig4", {"d": dims, "n": n, "p_max": p_max, "steps": steps})
    deviation = 0.0

    def document():
        nonlocal deviation
        yield _csv_document(manifest, ["d", "N", "p", "i_total", "r_lower"], [])
        for d in dims:
            rows = key_rate_scan(g, d, part, grid)
            for start in range(0, steps, CSV_CHUNK_ROWS):
                chunk = rows[start:start + CSV_CHUNK_ROWS]
                closed = 2 * (np.log2(d) - disturbance_entropy(chunk[:, 0] * (d - 1) / d, d))
                deviation = max(deviation, float(np.max(np.abs(chunk[:, 1] - closed))))
                yield (f"{d},{n},%r,%r,%r\n" * len(chunk)) % tuple(chunk.ravel().tolist())

    _emit(document(), out)
    if deviation > 1e-9:
        _refuse(f"closed-form deviation {deviation} exceeds 1e-9", EXIT_INVARIANT)


@main.command()
@click.option("--d", "d_list", default="2,3,5", show_default=True)
@click.option("--out", default=None, type=click.Path())
def fig5(d_list, out):
    """White-noise tolerance of the steering criterion (CSV: d,p_noise)."""
    dims = _parse_d_list(d_list)
    _bound("--d", max(dims), TABLE_BYTES_PER_ENTRY * 2 * max(dims) ** 2)
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    rows = [(d, noise_threshold(g, d, part)) for d in dims]
    manifest = _manifest("fig5", {"d": dims})
    _emit([_csv_document(manifest, ["d", "p_noise"], rows)], out)


@main.command()
@click.option("--d", "d_list", default="2,3", show_default=True)
@click.option("--out", default=None, type=click.Path())
def dc(d_list, out):
    """Critical disturbance of the cloning attack (CSV: d,D_c)."""
    dims = _parse_d_list(d_list)
    rows = [(d, critical_disturbance(d)) for d in dims]
    manifest = _manifest("dc", {"d": dims})
    _emit([_csv_document(manifest, ["d", "D_c"], rows)], out)


@main.command()
@click.option("--d", default=2, show_default=True)
@click.option("--samples", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
def nosharing(d, samples, seed, out):
    """Monte-Carlo check of the no-sharing inequality over random attacks."""
    if d < 2 or samples < 1:
        _refuse("bad ranges")
    _check_seed(seed)
    _bound("--d", d, 8 * d * d)  # each sample's float64 d x d gamma table
    rng = np.random.default_rng(seed)
    bound = 2 * float(np.log2(d))
    max_total = 0.0
    violations = 0
    for _ in range(samples):
        _, _, total = no_sharing_sum(dirichlet_gamma(d, rng))
        max_total = max(max_total, total)
        if total > bound + 1e-9:
            violations += 1
    payload = {
        "samples": samples,
        "max_total": max_total,
        "bound": bound,
        "violations": violations,
        "manifest": _manifest("nosharing", {"d": d, "samples": samples}, seed=seed),
    }
    _emit([json.dumps(payload, indent=2) + "\n"], out)
    if violations:
        raise SystemExit(EXIT_INVARIANT)


@main.command()
@click.option("--graph-file", default=None, type=click.Path(), help="Graph JSON (default: star(3), d=2).")
@click.option("--partition", default=None, help="Comma-separated A-side vertex list (default: 1).")
@click.option("--p", default=0.0, show_default=True, help="White-noise intensity.")
@click.option("--disturbance", default=None, type=float, help="Cloner disturbance D (omit for no attack).")
@click.option("--rounds", default=100_000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="Transcript JSONL file.")
def qss(graph_file, partition, p, disturbance, rounds, seed, out):
    """Run the secret-sharing protocol simulation and report rate estimates."""
    _check_seed(seed)
    _bound("--rounds", rounds, QSS_BYTES_PER_ROUND * rounds)
    if graph_file is not None:
        g, d = _load_graph(graph_file, 4)  # one table per setting pair
    else:
        g, d = make_star(3), 2
    part = _parse_partition(g, partition)
    try:
        cfg = ProtocolConfig(
            graph=g,
            d=d,
            part=part,
            noise_p=p,
            cloner_disturbance=disturbance,
            rounds=rounds,
            seed=seed,
        )
    except ValueError as exc:
        _refuse(str(exc))
    transcript = run_protocol(cfg)
    est = estimate_rates(transcript, d)
    if out:
        _atomic_write(out, transcript.to_jsonl)
    payload = {
        "i_hat_total": est.i_hat_total,
        "r_hat_lower": est.r_hat_lower,
        "sifted_rounds": list(est.sifted_rounds),
        "steerable_hat": est.steerable_hat,
        "manifest": _manifest(
            "qss",
            {
                "graph_file": graph_file,
                "partition": list(part.a_vertices),
                "p": p,
                "disturbance": disturbance,
                "rounds": rounds,
            },
            seed=seed,
        ),
    }
    click.echo(json.dumps(payload, indent=2))


@main.command()
def verify():
    """Run the module invariant suites; nonzero exit on any failure."""
    results = verify_mod.run_all()
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f": {detail}"
        click.echo(line)
        failed += not passed
    if failed:
        _refuse(f"{failed} invariant check(s) failed", EXIT_INVARIANT)
    click.echo(f"all {len(results)} invariant checks passed")


if __name__ == "__main__":
    main()
