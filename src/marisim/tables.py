"""Result tables: the LoS-probability and path-loss tables, deterministic
CSV/JSON emission, and the one ordered process map every parallel path runs.

A table maps each column name to an equal-length column.  format_table
renders it as CSV or JSON in blocks of rows, formatting each block's slice
of every column once, and write_blocks, the one writer of marisim's
output, writes text blocks to a file or stdout as they arrive.
_ordered_map runs a sweep's trials, the LoS table's cells and a long table's
blocks on forked helpers, results in item order; one gate, _map_width,
sizes it for all three and keeps it in this process where forking is unsafe.
Each LoS cell is a lattice integral over the wave phases, with no seed
(sea_surface.los_probability), so that table depends only on its cells.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import sys
import threading

import numpy as np

from . import channel, sea_surface
from .config import ConfigError, ScenarioConfig
from .sea_surface import FloatingNode

# Output formats of format_table, and of every subcommand's --format.
FORMATS = ("csv", "structured")

# Cells per sweep or LoS table: every cell is built before the first one
# runs, a sweep cell's config and a table cell's two nodes and wave at about
# 0.4 KB each, so either stays under about 4 MB.
MAX_CELLS = 10_000


def _map_width(*caps: int) -> int:
    """Processes for an ordered map: at most one per CPU this process may
    run on (its affinity where the OS reports one) and within every cap
    given, where helpers can be forked safely, else 1: fork is available, no
    other thread is alive, and the default start method is fork or
    forkserver (Linux; forkserver from Python 3.14), not spawn (macOS,
    Windows).  _ordered_map asks for fork by name."""
    methods = multiprocessing.get_all_start_methods()
    default = multiprocessing.get_start_method(allow_none=True) or methods[0]
    if (default not in ("fork", "forkserver") or "fork" not in methods
            or threading.active_count() > 1):
        return 1
    usable = getattr(os, "sched_getaffinity", None)
    return min(*caps, (len(usable(0)) if usable else os.cpu_count()) or 1)


def _send_results(fn, items, conn) -> None:
    """A helper's work: (fn(item), None) for each of its items, sent in
    order; an exception ends the work and is sent as (None, exception)."""
    try:
        for item in items:
            conn.send((fn(item), None))
    except Exception as exc:
        conn.send((None, exc))
    conn.close()


def _ordered_map(fn, items, width: int):
    """Generator of fn(item) for each of the sequence items, in order, on
    width processes; map(fn, items) for a width of 1 or less.

    Helper w of width - 1 forked helpers computes the items at the indices
    b = w mod width and sends each result over its own one-way pipe; this
    process computes the items b = 0 mod width and receives the others as
    they fall due, so it holds at most one received result per helper, and
    a full pipe blocks its helper.  An exception a helper raises is raised
    here at its item's index.  The helpers are killed and joined when the
    generator ends or is closed; one that ends before its results are sent
    raises RuntimeError."""
    if width <= 1:
        yield from map(fn, items)
        return
    fork = multiprocessing.get_context("fork")
    helpers, readers = [], []
    try:
        for w in range(1, width):
            reader, writer = fork.Pipe(duplex=False)
            readers.append(reader)
            helper = fork.Process(target=_send_results, daemon=True,
                                  args=(fn, items[w::width], writer))
            helper.start()
            helpers.append(helper)
            writer.close()   # the helper holds the only writing end
        for b, item in enumerate(items):
            w = b % width
            if w == 0:
                yield fn(item)
                continue
            try:
                result, exc = readers[w - 1].recv()
            except (EOFError, OSError):   # OSError: cut off inside a result
                raise RuntimeError(f"helper process {w} ended before sending "
                                   f"result {b} of {len(items)}") from None
            if exc is not None:
                raise exc
            yield result
    finally:
        for helper in helpers:
            helper.kill()   # pure computation: nothing to clean up
        for helper in helpers:
            helper.join()
            helper.close()
        for reader in readers:
            reader.close()


def _los_cells(cfg: ScenarioConfig, levels, heights) -> list:
    """(tx, rx, wave) of each LoS table cell, heights varying fastest."""
    tx = FloatingNode(position=cfg.geometry.turbine_position,
                      mast_height=cfg.geometry.iot_mast_m)
    return [(tx,
             FloatingNode(position=cfg.geometry.rx_position, mast_height=h),
             sea_surface.wave_from_sea_state(sea_surface.sea_state(level),
                                             cfg.geometry.wave_source))
            for level in levels for h in heights]


def los_probability_table(cfg: ScenarioConfig, states, heights,
                          samples: int = 10_000) -> dict:
    """LoS probability of the IoT->receiver hop per (sea state, mast height),
    as sea_state, h_r0_m and los_prob columns, heights varying fastest.

    The cells run through one ordered map on at most one process per cell
    and per CPU.  Each cell's probability is a count over the same
    samples-point lattice of wave phases, with no draw and no seed, so the
    table depends on neither the scenario seed nor the process count.  The
    sea_state column holds the levels as Python ints (an object array), so
    a level past the int64 range is written as the integer it is.  A table
    of more than MAX_CELLS cells raises ConfigError before any cell is
    built."""
    levels = [int(level) for level in states]
    heights = [float(h) for h in heights]
    count = len(levels) * len(heights)
    if count > MAX_CELLS:
        raise ConfigError(f"LoS table has {count} cells, over the "
                          f"{MAX_CELLS} cap")
    cells = _los_cells(cfg, levels, heights)

    def probability(cell):
        return sea_surface.los_probability(*cell, samples)

    probs = list(_ordered_map(probability, cells, _map_width(len(cells))))
    return {"sea_state": np.repeat(np.array(levels, dtype=object),
                                   len(heights)),
            "h_r0_m": np.tile(heights, len(levels)),
            "los_prob": np.array(probs)}


def pathloss_table(cfg: ScenarioConfig, d_values) -> dict:
    """Loss of each propagation model over distance, shadowing disabled, as
    d_m, los_db, nlos_db and free_space_db columns."""
    p = cfg.radio.pathloss
    d = np.asarray(d_values, dtype=float)
    below = d[d < p.d_0]
    if below.size:
        raise ConfigError(f"distance {float(below[0])} m below the NLoS "
                          f"reference {p.d_0} m")
    h_t, h_r = cfg.geometry.iot_mast_m, cfg.geometry.rx_mast_m
    return {"d_m": d, "los_db": channel.path_loss_los(d, h_t, h_r, p),
            "nlos_db": channel.path_loss_nlos(d, p),
            "free_space_db": channel.path_loss_free_space(d, p.f_c)}


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


# Rows per emitted text block: bounds the memory the emitter holds whatever
# the table's length.
ROWS_PER_BLOCK = 2048

# json.dumps's words for the non-finite floats repr writes as nan and inf
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(col, structured: bool) -> list:
    """Cell text of one column slice, float arrays through repr of their
    Python floats; structured quotes str cells and spells non-finite floats
    as json.dumps does."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        cells = list(map(repr, col.tolist()))
    else:
        cells = [json.dumps(v) if structured and isinstance(v, str)
                 else _format_cell(v) for v in col]
    return [_JSON_WORDS.get(c, c) for c in cells] if structured else cells


def format_table(table, fmt: str = "csv"):
    """Render a table as CSV or JSON text, yielded in blocks of
    ROWS_PER_BLOCK rows; floats keep full round-trip precision.

    A table maps each column name to an equal-length 1-D sequence, in
    column order.  Each block formats its slice of every column once, and
    both formats are built from the same cells.  No cell marisim emits
    holds a comma, a quote or a newline, so joining the cells gives
    csv.writer's bytes; the JSON is json.dumps(rows, indent=2)'s.  The
    format, one of FORMATS, is checked here, before any block is produced.
    A table of many blocks is formatted on up to one process per CPU (see
    _ordered_map), with the same bytes.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    return _blocks(table, fmt == "structured")


# Blocks each process formats, at least, before a table's blocks are split
# across helper processes: a shorter table costs more to fork than to format.
BLOCKS_PER_PROCESS = 4


def _block_text(columns, structured: bool, join_row, sep: str, b: int) -> str:
    """Text of block b's rows, without the lead that joins it to the text
    before it; depends only on block b's slice of the columns."""
    start = b * ROWS_PER_BLOCK
    cells = [_cells(col[start:start + ROWS_PER_BLOCK], structured)
             for col in columns]
    return sep.join(map(join_row, zip(*cells)))


def _blocks(table, structured: bool, width=None):
    columns = list(table.values())
    n_rows = min(map(len, columns), default=0)
    if structured:
        fields = ",\n".join("    %s: %%s" % json.dumps(name).replace("%", "%%")
                            for name in table)
        join_row = ("  {\n" + fields + "\n  }").__mod__
        lead, sep, end = "[\n", ",\n", "\n]\n" if n_rows else "[]\n"
    else:
        join_row = ",".join
        lead, sep = ",".join(table) + "\n", "\n"
        end = "\n" if n_rows else lead
    text = functools.partial(_block_text, columns, structured, join_row, sep)
    n_blocks = -(-n_rows // ROWS_PER_BLOCK)
    if width is None:
        width = _map_width(n_blocks // BLOCKS_PER_PROCESS)
    texts = _ordered_map(text, range(n_blocks), width)
    with contextlib.closing(texts):
        for body in texts:
            yield lead + body
            lead = sep
    yield end


def write_blocks(blocks, path=None) -> None:
    """Write a generator of text blocks to path, or to stdout when path is
    None, as they arrive, and close it however the writing ends, which kills
    any forked emit helper.  A reader that closes stdout early ends the
    output quietly; any other I/O error raises ConfigError naming path or
    stdout, and after either, fd 1 is the null device, so the flush at exit
    cannot fail again.  A part-way failure removes a regular file at path,
    leaving no short table, but keeps a device or FIFO."""
    opened = False   # a file at path
    try:
        with contextlib.closing(blocks), (
                contextlib.nullcontext(sys.stdout) if path is None
                else open(path, "w", encoding="utf-8", newline="")) as fh:
            opened = path is not None
            # flushed block by block: multiprocessing flushes stdout before
            # each fork, and a write error must surface here, not there
            for block in blocks:
                fh.write(block)
                fh.flush()
    except BaseException as exc:
        if path is None and isinstance(exc, OSError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return
        if opened and os.path.isfile(path):
            with contextlib.suppress(OSError):   # keep the first error
                os.remove(path)
        if isinstance(exc, OSError):
            where = "stdout" if path is None else path
            raise ConfigError(f"cannot write {where}: {exc}") from exc
        raise
