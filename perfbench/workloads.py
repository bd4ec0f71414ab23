"""The four workloads: inputs built from a seed, the timed call of each task, and its check.

Input sizes come from Weyl sequences, frac(offset + i * alpha) with a seeded
offset and an irrational alpha, instead of independent random draws: every
run of consecutive tasks then covers the size range evenly, so the task mix,
and with it the medians, hardly depends on the seed or on how many tasks fit
into the measured seconds. The seed still decides every folding sequence,
size, planted position, budget and the task order.

Tasks go through the public API (or the ``apavoid`` command) only. Each check
compares a verdict with a route that does not run the code under test (see
``gate``); the ``cli`` checks also compare with the in-process API.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate
import oracles

GOLDEN = (math.sqrt(5) - 1) / 2
SILVER = math.sqrt(2) - 1
BRONZE = math.sqrt(3) - 1
COPPER = math.sqrt(7) - 2

CLI_TIMEOUT_S = 60.0
SHORT_WORD = 48  # whole reports up to this length are compared with the brute-force scan
FOLD_BITS = 13  # enough folding instructions for prefixes up to 8191 symbols

# name -> (builder in apavoid, threshold, strict, min_period, gen word, grid construction)
# The thresholds are the theorem thresholds over odd differences: every
# folding sequence gives a word with no such repetition on an odd progression.
CONSTRUCTIONS = {
    "paperfolding": ("paperfolding_prefix", Fraction(3), True, 1, "paperfolding", "paperfold4"),
    "four_letter": ("four_letter_squarefree", Fraction(2), False, 1, "v", "product16"),
    "ternary": ("ternary_overlapfree", Fraction(2), True, 1, "overlap3", "overlap9"),
    "binary": ("binary_large_squarefree", Fraction(2), False, 3, "bigsq2", "bigsq4"),
}
NAMES = tuple(CONSTRUCTIONS)


@dataclass
class Task:
    kind: str
    args: dict


@dataclass
class Context:
    """What tasks need besides their inputs: the package, where to write, how to spawn."""

    ap: object
    root: Path
    out_dir: Path
    env: dict
    python: str = sys.executable
    tracer: object = None
    cache: dict = field(default_factory=dict)

    @classmethod
    def create(cls, ap, root: Path) -> "Context":
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        return cls(ap, root, out_dir, child_env(root))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def weyl(offset: float, i: int, alpha: float = GOLDEN) -> float:
    return (offset + i * alpha) % 1.0


def log_uniform(lo: int, hi: int, u: float) -> int:
    return round(lo * (hi / lo) ** u)


def _folds(ap, rng: random.Random):
    return ap.FoldingSequence(tuple(rng.randrange(2) for _ in range(FOLD_BITS)))


def _word(ap, name: str, folds, n: int):
    return getattr(ap, CONSTRUCTIONS[name][0])(folds, n)


def plant(ap, word, name: str, u_pos: float, u_diff: float, u_period: float):
    """Overwrite one odd progression with a run that reaches the threshold.

    The run repeats the primitive block 0...01 of length p >= min_period for
    floor(threshold * p) + 1 terms, so its exponent passes even a strict
    threshold, and so the word is guaranteed to hold a repetition.
    """
    _, threshold, _, min_period, _, _ = CONSTRUCTIONS[name]
    s = bytearray(word.symbols)
    n = len(s)
    p = max(2, min_period) + int(u_period * 2)
    block = [0] * (p - 1) + [1]
    run = math.floor(threshold * p) + 1
    widest = (n - 1) // (run - 1)
    diff = min(2 * int(u_diff * 8) + 1, widest if widest % 2 else widest - 1)
    start = int(u_pos * (n - (run - 1) * diff))
    for t in range(run):
        s[start + t * diff] = block[t % p]
    return ap.Word(bytes(s), word.alphabet_size)


def _report_tuple(rep):
    if rep is None:
        return None
    prog = rep.progression
    return (prog.difference, prog.start, prog.count, rep.offset, rep.period, rep.exponent)


# ---------------------------------------------------------------- check


def _scan_task(ap, name, word, planted):
    _, threshold, strict, min_period, _, _ = CONSTRUCTIONS[name]
    return Task("scan", {"name": name, "word": word, "planted": planted, "threshold": threshold,
                         "strict": strict, "min_period": min_period,
                         "differences": ap.Differences.odd()})


def build_check(ctx: Context, seed: int, tiny: bool):
    """One task in five is a max_exponent call, the rest odd-difference scans.

    Scans cover lengths 64..1024 log-uniformly, a quarter with one planted
    repetition; exponent calls cover 128..2048.
    """
    ap = ctx.ap
    rng = random.Random(f"check:{seed}")
    off = [rng.random() for _ in range(6)]
    scan_hi, exp_lo, exp_hi = (64, 32, 96) if tiny else (1024, 128, 2048)
    pool = []
    n_scan = n_exp = 0
    for i in range(10 if tiny else 200):
        if i % 5 == 4:
            name = NAMES[n_exp % 4]
            n = log_uniform(exp_lo, exp_hi, weyl(off[0], n_exp))
            pool.append(Task("exponent", {"word": _word(ap, name, _folds(ap, rng), n)}))
            n_exp += 1
            continue
        name = NAMES[n_scan % 4]
        n = log_uniform(24 if tiny else 64, scan_hi, weyl(off[1], n_scan))
        word = _word(ap, name, _folds(ap, rng), n)
        planted = weyl(off[2], n_scan, SILVER) < 0.25
        if planted:
            word = plant(ap, word, name, weyl(off[3], n_scan, BRONZE),
                         weyl(off[4], n_scan, COPPER), rng.random())
        pool.append(_scan_task(ap, name, word, planted))
        n_scan += 1

    # Untimed verdicts: whole reports on short words against the brute-force
    # scan, and the README's exponent of the ordinary four-letter prefix.
    extra = []
    for k, name in enumerate(NAMES * 2):
        word = _word(ap, name, _folds(ap, rng), rng.randrange(24, 41))
        planted = k >= len(NAMES)
        if planted:
            word = plant(ap, word, name, rng.random(), rng.random(), rng.random())
        extra.append(_scan_task(ap, name, word, planted))
    golden_n, golden = (256, Fraction(127, 64)) if tiny else (4096, Fraction(2047, 1024))
    extra.append(Task("exponent", {
        "word": ap.four_letter_squarefree(ap.FoldingSequence.ordinary(), golden_n),
        "expected": golden}))
    return pool, extra


def run_scan(ctx, a):
    return ctx.ap.find_repetition(a["word"], a["threshold"], strict=a["strict"],
                                  min_period=a["min_period"], differences=a["differences"])


def check_scan(ctx, a, rep):
    seq = a["word"].symbols
    found = _report_tuple(rep)
    if len(seq) <= SHORT_WORD:
        err = gate.first_report_error(seq, found, a["threshold"], a["strict"], a["min_period"])
        if err is not None:
            return err
    if found is None:
        return "planted repetition not found" if a["planted"] else None
    if not a["planted"]:
        return f"{a['name']} word reported a repetition: {rep.to_line()}"
    return gate.witness_error(seq, found, a["threshold"], a["strict"], a["min_period"], odd_only=True)


def run_exponent(ctx, a):
    return ctx.ap.max_exponent(a["word"])


def check_exponent(ctx, a, value):
    want = a.get("expected")
    if want is None:
        key = ("exponent", a["word"].symbols)
        want = ctx.cache.get(key)
        if want is None:
            want = ctx.cache[key] = gate.max_exponent_by_runs(a["word"].symbols)
    return None if value == want else f"max_exponent {value}, expected {want}"


# ---------------------------------------------------------------- search

EXACT = ((2, Fraction(3), False), (3, Fraction(2), False), (2, Fraction(2), True),
         (5, Fraction(3, 2), False), (4, Fraction(7, 4), False))


def build_search(ctx: Context, seed: int, tiny: bool):
    """Cycles of the five exact problems, two Carpi trees under seeded caps
    12..20 and one bounded confirmation with a seeded budget of 2,000..10,000
    nodes. Each word search runs plain and canonical, back to back.

    The plain Carpi tree grows ninefold from cap 12 to cap 20, so a wider cap
    range would let a few trees dominate a run and the throughput depend on
    how many of them fit into it."""
    ap = ctx.ap
    rng = random.Random(f"search:{seed}")
    off = [rng.random() for _ in range(2)]
    odd = ap.Differences.odd()
    pool = []
    carpi = confirm = 0
    for _ in range(2 if tiny else 16):
        items = [ap.AvoidanceProblem(k, t, odd, strict=s) for k, t, s in EXACT[:3 if tiny else 5]]
        for _ in range(2):
            cap = (12 + int(weyl(off[0], carpi) * 9)) if not tiny else 8
            items.append(ap.AvoidanceProblem(4, Fraction(2), odd, length_cap=cap))
            carpi += 1
        budget = log_uniform(200 if tiny else 2000, 500 if tiny else 10000, weyl(off[1], confirm))
        items.append(budget)
        confirm += 1
        rng.shuffle(items)
        for item in items:
            if isinstance(item, int):
                pool.append(Task("confirm", {"budget": item, "differences": odd}))
            else:
                for canonical in (False, True):
                    pool.append(Task("search", {"problem": item, "canonical": canonical}))
    return pool, []


def run_search(ctx, a):
    return ctx.ap.backtrack_longest(a["problem"], canonical=a["canonical"])


def check_search(ctx, a, res):
    p = a["problem"]
    canonical = a["canonical"]
    if p.length_cap is not None:
        want = gate.CARPI_NODES.get(p.length_cap)
        if not res.capped or res.max_length != p.length_cap or res.maximal_words:
            return f"Carpi tree under cap {p.length_cap} gave {res.max_length}, capped={res.capped}"
        if want is not None and res.nodes_visited != want[canonical]:
            return f"Carpi tree under cap {p.length_cap}: {res.nodes_visited} nodes, expected {want[canonical]}"
        return None
    key = (p.alphabet_size, p.threshold, p.strict)
    length, plain_nodes, canon_nodes, count, words = gate.EXACT_SEARCHES[key]
    texts = frozenset(w.to_text() for w in res.maximal_words)
    nodes = canon_nodes if canonical else plain_nodes
    if res.capped or res.max_length != length or res.nodes_visited != nodes:
        return (f"search {key} canonical={canonical}: length {res.max_length} in "
                f"{res.nodes_visited} nodes, expected {length} in {nodes}")
    if len(texts) != count or (words is not None and texts != words):
        return f"search {key} canonical={canonical}: {len(texts)} maximal words, expected {count}"
    seen = ctx.cache.setdefault(("search", key), texts)
    if seen != texts:
        return f"search {key}: plain and canonical word sets differ"
    checked = ctx.cache.setdefault("maximal_checked", {})
    if texts not in checked:
        checked[texts] = gate.maximal_set_error(texts, p.alphabet_size, p.threshold, p.strict, length)
    return checked[texts]


def run_confirm(ctx, a):
    return ctx.ap.confirm_unavoidable(3, Fraction(2), a["differences"], strict=True,
                                      node_budget=a["budget"])


def check_confirm(ctx, a, verdict):
    # The ternary coding of v avoids 2+ powers on odd progressions, so this
    # tree is infinite and every budget must run out exactly.
    if verdict.status != "budget_exhausted" or verdict.nodes != a["budget"]:
        return f"confirm_unavoidable(3, 2+, odd) budget {a['budget']} gave {verdict}"
    return None


# ---------------------------------------------------------------- grid

def build_grid(ctx: Context, seed: int, tiny: bool):
    """Cycles of twelve product grids (sides 8..48, direction cap 8) and the
    ten grid searches with frozen outcomes or seeded budgets of 5,000..100,000.

    Rows and columns are drawn apart, so grid sizes, and verification costs,
    vary smoothly instead of in the steps of square sides."""
    ap = ctx.ap
    rng = random.Random(f"grid:{seed}")
    off = [rng.random() for _ in range(4)]
    pool = []
    n_grid = n_budget = 0
    lo, hi = (4, 8) if tiny else (8, 48)
    for _ in range(1 if tiny else 8):
        items = []
        for _ in range(4 if tiny else 12):
            name = NAMES[n_grid % 4]
            rows = log_uniform(lo, hi, weyl(off[0], n_grid))
            cols = log_uniform(lo, hi, weyl(off[3], n_grid, SILVER))
            grid = ap.product_grid(_word(ap, name, _folds(ap, rng), rows),
                                   _word(ap, name, _folds(ap, rng), cols))
            _, threshold, strict, min_period, _, _ = CONSTRUCTIONS[name]
            items.append(Task("verify", {"name": name, "grid": grid, "threshold": threshold,
                                         "strict": strict, "min_period": min_period}))
            n_grid += 1
        searches = list(gate.GRID_SEARCHES)[:4] if tiny else list(gate.GRID_SEARCHES)
        for alphabet, threshold, side in searches:
            items.append(Task("grid_search", {"alphabet": alphabet, "threshold": threshold,
                                              "side": side, "budget": 10**8}))
        for alphabet, side, k in ((6, 4, 1), (7, 8, 2)):
            budget = log_uniform(500 if tiny else 5000, 1000 if tiny else 100000,
                                 weyl(off[k], n_budget))
            items.append(Task("grid_search", {"alphabet": alphabet, "threshold": 2,
                                              "side": side, "budget": budget}))
        n_budget += 1
        rng.shuffle(items)
        pool.extend(items)
    return pool, []


def run_verify(ctx, a):
    return ctx.ap.verify_grid(a["grid"], a["threshold"], strict=a["strict"],
                              min_period=a["min_period"], max_direction=8)


def check_verify(ctx, a, hit):
    # Every line of a product grid steps by an odd amount in one factor, so
    # the grid inherits the factor's cleanness (criterion 12).
    if hit is None:
        return None
    spec, rep = hit
    return f"{a['name']} product grid reported a repetition on {spec}: {rep.to_line()}"


def run_grid_search(ctx, a):
    return ctx.ap.grid_search(a["alphabet"], a["threshold"], a["side"], node_budget=a["budget"])


def check_grid_search(ctx, a, out):
    key = (a["alphabet"], a["threshold"], a["side"])
    want = gate.GRID_SEARCHES.get(key, ("budget_exhausted", a["budget"]))
    if (out.status, out.nodes) != want:
        return f"grid_search{key} gave {out.status} in {out.nodes} nodes, expected {want}"
    if out.status != "satisfiable":
        return None
    checked = ctx.cache.setdefault("grid_witness", {})
    cells = out.witness.cells
    if cells not in checked:
        err = gate.clean_grid_error(cells, a["side"], Fraction(a["threshold"]), False, 1,
                                    max(1, a["side"] - 1))
        if err is None and ctx.ap.verify_grid(out.witness, a["threshold"],
                                              max_direction=max(1, a["side"] - 1)) is not None:
            err = "grid_search witness fails verify_grid"
        checked[cells] = err
    return checked[cells]


# ---------------------------------------------------------------- cli

SEARCH_COMMANDS = (
    ["--alphabet", "2", "--threshold", "3", "--diffs", "odd"],
    ["--alphabet", "3", "--threshold", "2", "--diffs", "odd", "--canonical"],
    ["--alphabet", "2", "--threshold", "2+", "--diffs", "odd"],
    ["--alphabet", "5", "--threshold", "3/2", "--diffs", "odd", "--canonical"],
    ["--alphabet", "4", "--threshold", "2", "--diffs", "odd", "--length-cap", "12", "--canonical"],
    ["--alphabet", "3", "--threshold", "2+", "--diffs", "odd", "--budget", "2000"],
)


def _threshold_text(threshold: Fraction, strict: bool) -> str:
    return f"{threshold}{'+' if strict else ''}"


def build_cli(ctx: Context, seed: int, tiny: bool):
    """Cycles of gen, check --input, search, grid --verify and grid --search-alphabet,
    each on a small input, so interpreter start-up and import stay visible."""
    ap = ctx.ap
    rng = random.Random(f"cli:{seed}")
    off = [rng.random() for _ in range(4)]
    input_dir = ctx.out_dir / "cli-inputs"
    input_dir.mkdir(exist_ok=True)
    gen_words = NAMES + ("carpi",)
    pool = []
    for c in range(2 if tiny else 24):
        items = []
        gen = gen_words[c % 5]
        n = log_uniform(64, 1024, weyl(off[0], c))
        bits = "".join(map(str, _folds(ap, rng).bits))
        if gen == "carpi":
            argv = ["gen", "--word", "carpi", "--length", str(n)]
        else:
            argv = ["gen", "--word", CONSTRUCTIONS[gen][4], "--folds", bits, "--length", str(n)]
        items.append(Task("cli", {"argv": argv, "spec": ("gen", gen, bits, n)}))

        name = NAMES[c % 4]
        _, threshold, strict, min_period, _, construction = CONSTRUCTIONS[name]
        word = _word(ap, name, _folds(ap, rng), log_uniform(64, 256, weyl(off[1], c)))
        planted = weyl(off[2], c, SILVER) < 0.25
        if planted:
            word = plant(ap, word, name, rng.random(), rng.random(), rng.random())
        path = input_dir / f"word-{c}.txt"
        path.write_text(word.to_text() + "\n", encoding="ascii")
        items.append(Task("cli", {
            "argv": ["check", "--input", str(path), "--threshold", _threshold_text(threshold, strict),
                     "--min-period", str(min_period), "--diffs", "odd"],
            "spec": ("check", name, word, planted)}))

        items.append(Task("cli", {"argv": ["search", *SEARCH_COMMANDS[c % len(SEARCH_COMMANDS)]],
                                  "spec": ("search",)}))

        size = log_uniform(6 if tiny else 8, 8 if tiny else 16, weyl(off[3], c))
        bits = "".join(map(str, _folds(ap, rng).bits))
        items.append(Task("cli", {
            "argv": ["grid", "--construction", construction, "--size", str(size), "--folds", bits,
                     "--verify"],
            "spec": ("verify", name, bits, size)}))

        alphabet, threshold_g, side = list(gate.GRID_SEARCHES)[c % len(gate.GRID_SEARCHES)]
        items.append(Task("cli", {
            "argv": ["grid", "--search-alphabet", str(alphabet), "--size", str(side),
                     "--threshold", str(threshold_g)],
            "spec": ("grid_search", alphabet, threshold_g, side)}))
        rng.shuffle(items)
        pool.extend(items)
    return pool, []


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def _spawn(ctx: Context, argv: list[str]) -> CliResult:
    out_path = ctx.out_dir / "cli-stdout"
    err_path = ctx.out_dir / "cli-stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ctx.root, env=ctx.env)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than wait: it also returns this child's peak memory
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read().decode("ascii", "replace"),
                         err.read().decode("ascii", "replace"), usage.ru_maxrss)


def run_cli(ctx, a):
    tracer = ctx.tracer
    if tracer is None:
        return _spawn(ctx, [ctx.python, "-m", "apavoid", *a["argv"]])
    spans_path = ctx.out_dir / "cli-spans.json"
    shim = str(Path(__file__).resolve().with_name("cli_shim.py"))
    result = _spawn(ctx, [ctx.python, shim, str(spans_path), "--", *a["argv"]])
    with open(spans_path, encoding="ascii") as fh:
        recorded = json.load(fh)
    tracer.adopt(recorded["spans"], tracer.stack[-1])
    ctx.cache.setdefault("absent", set()).update(recorded["absent"])
    return result


def _expected_cli(ctx, spec) -> tuple[str, int, str | None]:
    """(stdout, exit code, error from an independent check) for one command."""
    ap = ctx.ap
    kind = spec[0]
    if kind == "gen":
        _, name, bits, n = spec
        if name == "carpi":
            return ap.present(ap.carpi_word(n), "carpi") + "\n", 0, None
        word = _word(ap, name, ap.FoldingSequence.parse(bits), n)
        err = None
        if name == "paperfolding" and list(word.symbols) != oracles.pf_recursive([int(b) for b in bits], n):
            err = "paperfolding prefix differs from the recursive construction"
        return ap.present(word, CONSTRUCTIONS[name][4]) + "\n", 0, err
    if kind == "check":
        _, name, word, planted = spec
        task = _scan_task(ap, name, word, planted).args
        rep = run_scan(ctx, task)
        err = check_scan(ctx, task, rep)
        return ("ok\n", 0, err) if rep is None else (rep.to_line() + "\n", 1, err)
    if kind == "verify":
        _, name, bits, size = spec
        component = _word(ap, name, ap.FoldingSequence.parse(bits), size)
        _, threshold, strict, min_period, _, _ = CONSTRUCTIONS[name]
        task = {"name": name, "grid": ap.product_grid(component, component),
                "threshold": threshold, "strict": strict, "min_period": min_period}
        hit = run_verify(ctx, task)
        err = check_verify(ctx, task, hit)
        return ("ok\n", 0, err) if hit is None else ("", 1, err)
    if kind == "grid_search":
        _, alphabet, threshold, side = spec
        task = {"alphabet": alphabet, "threshold": threshold, "side": side, "budget": 10**8}
        out = run_grid_search(ctx, task)
        err = check_grid_search(ctx, task, out)
        text = f"{out.status}\nnodes={out.nodes}\n"
        if out.status != "satisfiable":
            return text, 1, err
        return text + out.witness.to_text(), 0, err
    raise ValueError(f"unknown command kind {kind}")


def _expected_search(ctx, argv) -> tuple[str, int, str | None]:
    ap = ctx.ap
    opts = dict(zip(argv[1::2], argv[2::2]))
    text = opts["--threshold"]
    strict = text.endswith("+")
    threshold = Fraction(text.rstrip("+"))
    alphabet = int(opts["--alphabet"])
    odd = ap.Differences.odd()
    if "--budget" in opts:
        task = {"budget": int(opts["--budget"]), "differences": odd}
        verdict = run_confirm(ctx, task)
        return f"budget_exhausted nodes={verdict.nodes}\n", 1, check_confirm(ctx, task, verdict)
    cap = int(opts["--length-cap"]) if "--length-cap" in opts else None
    task = {"problem": ap.AvoidanceProblem(alphabet, threshold, odd, strict=strict, length_cap=cap),
            "canonical": "--canonical" in argv}
    res = run_search(ctx, task)
    err = check_search(ctx, task, res)
    out = f"max_length={res.max_length}\n"
    if res.capped:
        return out + "cap_reached\n", 1, err
    return out + "".join(w.to_text() + "\n" for w in res.maximal_words), 0, err


def check_cli(ctx, a, result):
    key = ("cli", tuple(a["argv"]))
    want = ctx.cache.get(key)
    if want is None:
        if a["spec"][0] == "search":
            want = _expected_search(ctx, a["argv"])
        else:
            want = _expected_cli(ctx, a["spec"])
        ctx.cache[key] = want
    stdout, code, err = want
    if err is not None:
        return err
    if (result.stdout, result.code) != (stdout, code):
        detail = result.stderr.strip().splitlines()[-1:] or [result.stdout[:80]]
        return f"apavoid {' '.join(a['argv'][:3])} exited {result.code} ({detail[0]}), expected {code}"
    return None


# ---------------------------------------------------------------- dispatch

BUILD = {"check": build_check, "search": build_search, "grid": build_grid, "cli": build_cli}
RUN = {"scan": run_scan, "exponent": run_exponent, "search": run_search, "confirm": run_confirm,
       "verify": run_verify, "grid_search": run_grid_search, "cli": run_cli}
CHECK = {"scan": check_scan, "exponent": check_exponent, "search": check_search,
         "confirm": check_confirm, "verify": check_verify, "grid_search": check_grid_search,
         "cli": check_cli}

# Tasks in one traced pass: each pass takes a few seconds untraced.
TRACE_TASKS = {"check": 30, "search": 30, "grid": 22, "cli": 15}


def build(ctx: Context, workload: str, seed: int, tiny: bool = False):
    """(pool of timed tasks, tasks whose verdicts are only checked)."""
    return BUILD[workload](ctx, seed, tiny)


def execute(ctx: Context, task: Task):
    return RUN[task.kind](ctx, task.args)


def check(ctx: Context, task: Task, result) -> str | None:
    return CHECK[task.kind](ctx, task.args, result)


def input_symbols(pool) -> int:
    """Symbols in the generated words and grid cells a workload runs on."""
    total = 0
    for task in pool:
        a = task.args
        if "word" in a:
            total += len(a["word"])
        elif "grid" in a:
            total += len(a["grid"].cells)
        elif a.get("spec") and a["spec"][0] == "check":
            total += len(a["spec"][2])
    return total
