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
from .cloner import dirichlet_gamma, shared_information
from .graphs import Bipartition, NotTwoColorable, make_star, parse_graph
from .protocol import InsufficientData, ProtocolConfig, estimate_rates, run_protocol
from .schmidt import NoCorrelationForm
from .steering import (
    critical_disturbance,
    critical_noise,
    derive_both_settings,
    key_rate_curve,
    steering_statistic,
)
from . import verify as verify_mod

EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_DERIVATION = 3

# Memory that one option value may need; a command refuses more with exit 2.
# The same 2^28 bytes as the dense registers' guard, kept here so that no
# command imports the dense layer.
MEMORY_LIMIT_BYTES = 2 ** 28

# Peak memory per unit of a command-line size, measured as the ru_maxrss slope
# (2-CPU x86-64 Linux, numpy 2) and rounded up: `qss --out` grew by 12 bytes a
# round from 2^18 to 2^21 rounds at d=2 (at most 12.8 between doublings) and by
# 21.1 at d=257 (24.4 between 2^19 and 2^20, above the constant), whose
# outcomes take two bytes; `fig4 --d 2` by 10.9 bytes an output row from 2^18
# to 2^22 rows: the 8-byte p grid, since the rows are computed and written one
# `CSV_CHUNK_ROWS` chunk at a time.
QSS_BYTES_PER_ROUND = 24
FIG4_BYTES_PER_ROW = 48
# Peak memory per entry of `qss`'s four d x d joint tables, rounded up from
# the peak-RSS slope over d on the same machine: 17.8 bytes an entry from
# d=512 to 1024, for the closed-form tables of `cloner.pair_tables`.
TABLE_BYTES_PER_ENTRY = 64
# Peak memory per vertex or edge of a graph, the ru_maxrss slope of `certify
# --partition 1` at d=3 rounded up: 347-358 bytes between stars of 10^5 to 4*10^5
# vertices, 304 between such chains, 281 between 316^2 and 632^2 grids (359 MB).
GRAPH_BYTES_PER_ELEMENT = 512
# Peak memory per entry of a `nosharing` sample's d x d attack table, rounded up
# from the peak-RSS slope on the same machine: 50.4 bytes an entry from d=1024
# to 2048, for the Dirichlet draw, its square root and the clone's two complex FFTs.
NOSHARING_BYTES_PER_ENTRY = 64
# Output rows computed, formatted and written at a time by `fig4`.
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


def _write(text: str, err: bool = False) -> None:
    """Echo ``text`` to the current stdout (or stderr), named so that click caches, and so pins, no stream."""
    click.echo(text, nl=False, file=click.get_text_stream("stderr" if err else "stdout"))


def _emit(chunks, out: str | None) -> None:
    """Write the text chunks to ``out``, each encoded once, or echo them to stdout."""
    if out:
        _atomic_write(out, lambda handle: handle.writelines(chunk.encode() for chunk in chunks))
    else:
        for chunk in chunks:
            _write(chunk)


def _csv_document(manifest: dict, header: list, rows: list) -> str:
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(map(str, row)) + "\n")
    return buf.getvalue()


def _refuse(reason: str, code: int = EXIT_VALIDATION):
    _write(f"error: {reason}\n", err=True)
    raise SystemExit(code)


def _bound(option: str, value: int, n_bytes: int) -> None:
    """Refuse an option value that needs more than MEMORY_LIMIT_BYTES (``n_bytes``) of memory."""
    if n_bytes > MEMORY_LIMIT_BYTES:
        _refuse(
            f"{option} {value} needs about {n_bytes} bytes, "
            f"over the {MEMORY_LIMIT_BYTES}-byte limit"
        )


def _check_width(option: str, d: int) -> None:
    if d >= 2 ** 64:  # numpy's log2 takes no integer wider than 64 bits
        _refuse(f"{option} {d} is not below 2**64")


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


def _load_graph(path: str):
    """The file's graph and d, refused before anything lists its vertices."""
    try:
        with open(path, encoding="utf-8") as handle:
            g, d = parse_graph(handle.read())
    except ValueError as exc:
        _refuse(str(exc))
    size = g.n_vertices + len(g.edges)
    _bound("graph n + |E|", size, GRAPH_BYTES_PER_ELEMENT * size)
    _check_width("d", d)
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
    _check_width("--d", max(values))
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
    g, d = _load_graph(graph_file)
    part = _parse_partition(g, partition)
    if not 0.0 <= p <= 1.0:
        _refuse("--p must be in [0, 1]")
    report = steering_statistic(g, d, derive_both_settings(g, d, part), part, p)
    manifest = _manifest(
        "certify", {"graph_file": graph_file, "partition": list(part.a_vertices), "p": p}
    )
    if fmt == "json":
        _emit([json.dumps({**vars(report), "manifest": manifest}, indent=2) + "\n"], out)
    else:
        header = ["i_setting_1", "i_setting_2", "i_total", "threshold", "steerable", "margin"]
        row = (
            *report.i_per_setting, report.i_total, report.threshold, report.steerable, report.margin
        )
        _emit([_csv_document(manifest, header, [row])], out)


@main.command()
@click.option("--d", "d_list", default="2,3,5", show_default=True, help="Comma-separated dimensions.")
@click.option("--n", default=3, show_default=True, help="Label of the N column; the rows do not depend on it.")
@click.option("--p-max", default=1.0, show_default=True, help="Upper end of the noise grid.")
@click.option("--steps", default=21, show_default=True, help="Grid points per dimension.")
@click.option("--out", default=None, type=click.Path())
def fig4(d_list, n, p_max, steps, out):
    """Key-rate lower bound versus white noise (CSV: d,N,p,i_total,r_lower)."""
    dims = _parse_d_list(d_list)
    if n < 2 or steps < 1 or not 0.0 <= p_max <= 1.0:
        _refuse("bad ranges")
    _bound("--steps", steps, FIG4_BYTES_PER_ROW * steps * len(dims))
    grid = np.linspace(0.0, p_max, steps)
    manifest = _manifest("fig4", {"d": dims, "n": n, "p_max": p_max, "steps": steps})

    def document():
        yield _csv_document(manifest, ["d", "N", "p", "i_total", "r_lower"], [])
        for d in dims:
            for start in range(0, steps, CSV_CHUNK_ROWS):
                rows = key_rate_curve(d, grid[start:start + CSV_CHUNK_ROWS])
                yield (f"{d},{n},%r,%r,%r\n" * len(rows)) % tuple(rows.ravel().tolist())

    _emit(document(), out)


@main.command()
@click.option("--d", "d_list", default="2,3,5", show_default=True)
@click.option("--out", default=None, type=click.Path())
def fig5(d_list, out):
    """White-noise tolerance of the steering criterion (CSV: d,p_noise)."""
    dims = _parse_d_list(d_list)
    rows = [(d, critical_noise(d)) for d in dims]
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
    """Monte-Carlo check of the no-sharing inequality over random attacks.

    Each attack leaves A with two-setting information I_AB about B and I_AC
    about the clone C.  max_total is the largest I_AB + I_AC, within bound =
    2 log2 d, and violations counts the attacks under which both exceed
    log2 d, so that B and C would both steer; any violation exits 1.
    """
    if d < 2 or samples < 1:
        _refuse("bad ranges")
    _check_seed(seed)
    _check_width("--d", d)
    _bound("--d", d, NOSHARING_BYTES_PER_ENTRY * d * d)
    rng = np.random.default_rng(seed)
    log_d = float(np.log2(d))
    max_total = 0.0
    violations = 0
    for _ in range(samples):
        i_ab, i_ac = shared_information(dirichlet_gamma(d, rng))
        max_total = max(max_total, i_ab + i_ac)
        violations += min(i_ab, i_ac) > log_d + 1e-9
    payload = {
        "samples": samples,
        "max_total": max_total,
        "bound": 2 * log_d,
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
        g, d = _load_graph(graph_file)
        _bound("d", d, TABLE_BYTES_PER_ENTRY * 4 * d * d)  # one table per setting pair
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
    manifest = _manifest(
        "qss",
        {
            "graph_file": graph_file,
            "partition": list(part.a_vertices),
            "p": p,
            "disturbance": disturbance,
            "rounds": rounds,
        },
        seed=seed,
    )
    _write(json.dumps({**vars(est), "manifest": manifest}, indent=2) + "\n")


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
        _write(line + "\n")
        failed += not passed
    if failed:
        _refuse(f"{failed} invariant check(s) failed", EXIT_INVARIANT)
    _write(f"all {len(results)} invariant checks passed\n")


if __name__ == "__main__":
    main()
