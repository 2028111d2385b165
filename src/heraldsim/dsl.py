"""Line-oriented experiment description language: parser, validator,
canonical serializer.

`validate` walks the transform of each declared element
(`config.element_transform`, the ones `ExperimentConfig.circuit()`
composes) from the source modes: an element must read modes that carry
light and may feed only modes that do not.  Diagnostics name an element by
its canonical stanza.  The parser rejects an element whose two outputs
coincide, which the walk cannot see, and a repeated once-only stanza.

Grammar (one stanza per line, `#` starts a comment):

    source spdc p1=<float> nmax=<int> visibility=<float>
    bs in=<spatial> refl=<spatial> trans=<spatial> R=<float>
    hwp on=<spatial> angle=<deg> out=<pol>,<pol>
    pbs on=<spatial>
    detector id=<label> mode=<spatial>:<pol> kind=<threshold|pnr>
             eta=<float> dark=<hz> window=<s>
    herald <id> <id> <id> <id>
    basis <HV|DA|RL> <HV|DA|RL>
    pulses <int>
    seed <int>
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .config import (COUNT_END, COUNT_LOW, NUMBER_RESOLVING, THRESHOLD,
                     BsDecl, DetectorSpec, ElementDecl, ExperimentConfig,
                     HwpDecl, PbsDecl, SourceNoise, SpdcParams,
                     coupling_from_rate, element_transform, pair_probability,
                     source_cells)
from .elements import (MEASUREMENT_BASES, SOURCE_MODES, ConfigError,
                       path_exponents)

BASES = tuple(MEASUREMENT_BASES)
# stanzas a config holds at most once; a second one is a located error
ONCE_ONLY = frozenset({"source", "herald", *COUNT_LOW})


class DslError(ConfigError):
    def __init__(self, message: str, line: int, col: int, hint: str = ""):
        self.line, self.col, self.hint = line, col, hint
        super().__init__(f"line {line}, col {col}: {message}"
                         + (f" ({hint})" if hint else ""))


class Token(NamedTuple):
    text: str
    line: int
    col: int


class Stanza(NamedTuple):
    keyword: Token
    args: tuple[Token, ...]


def tokenize(text: str) -> list[Stanza]:
    stanzas = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [Token(m.group(), lineno, m.start() + 1)
                  for m in re.finditer(r"\S+", line)]
        if tokens:
            stanzas.append(Stanza(tokens[0], tuple(tokens[1:])))
    return stanzas


def _kv_args(stanza: Stanza, required: list[str],
             optional: list[str] | None = None) -> dict[str, Token]:
    out: dict[str, Token] = {}
    allowed = set(required) | set(optional or [])
    for tok in stanza.args:
        key, eq, value = tok.text.partition("=")
        if not eq or not value:
            raise DslError(f"expected key=value argument, got {tok.text!r}",
                           tok.line, tok.col, "write e.g. R=0.486")
        if key not in allowed:
            raise DslError(f"unknown argument {key!r} for {stanza.keyword.text!r}",
                           tok.line, tok.col,
                           f"allowed: {', '.join(sorted(allowed))}")
        if key in out:
            raise DslError(f"duplicate argument {key!r}", tok.line, tok.col,
                           "remove the repeated key")
        out[key] = Token(value, tok.line, tok.col + len(key) + 1)
    for key in required:
        if key not in out:
            kw = stanza.keyword
            raise DslError(f"{stanza.keyword.text!r} is missing argument {key!r}",
                           kw.line, kw.col, f"add {key}=<value>")
    return out


def _float(tok: Token, name: str, lo: float | None = None,
           hi: float | None = None) -> float:
    try:
        value = float(tok.text)
    except ValueError:
        raise DslError(f"{name} must be a number, got {tok.text!r}",
                       tok.line, tok.col, "use decimal notation") from None
    if lo is not None and hi is not None and not (lo <= value <= hi):
        raise DslError(f"{name}={value} outside [{lo:g}, {hi:g}]",
                       tok.line, tok.col, "pick a value inside the bound")
    return value


def _int(tok: Token, name: str, lo: int | None = None) -> int:
    """The integer at `tok`; with `lo`, it must lie in [lo, COUNT_END)."""
    try:
        value = int(tok.text)
    except ValueError:
        raise DslError(f"{name} must be an integer, got {tok.text!r}",
                       tok.line, tok.col) from None
    if lo is not None and not lo <= value < COUNT_END:
        raise DslError(f"{name}={value} outside [{lo}, 2^63)", tok.line,
                       tok.col, "pick a value inside the bound")
    return value


_POL_RE = r"[a-z][a-z0-9']*"


def _mode(tok: Token) -> tuple[str, str]:
    spatial, sep, pol = tok.text.partition(":")
    if not sep or not spatial or not pol:
        raise DslError(f"mode must look like spatial:pol, got {tok.text!r}",
                       tok.line, tok.col, "e.g. mode=e:x")
    return spatial, pol


def parse(text: str) -> ExperimentConfig:
    """Parse DSL text into an ExperimentConfig; raises DslError with a
    location and a one-line fix hint on any lexical, type or range problem."""
    stanzas = tokenize(text)
    source: SpdcParams | None = None
    noise = SourceNoise()
    elements: list[ElementDecl] = []
    detectors: list[DetectorSpec] = []
    herald_ids: tuple[str, ...] = ()
    bases: list[tuple[str, str]] = []
    counts: dict[str, int] = {}  # pulses and seed, if given
    seen: set[str] = set()

    for stanza in stanzas:
        kw = stanza.keyword
        word = kw.text
        if word in ONCE_ONLY & seen:
            raise DslError(f"duplicate {word} stanza", kw.line, kw.col,
                           f"keep a single {word} line")
        seen.add(word)
        if word == "source":
            if not stanza.args or stanza.args[0].text != "spdc":
                raise DslError("source kind must be 'spdc'", kw.line, kw.col,
                               "write: source spdc p1=... nmax=... visibility=...")
            args = _kv_args(Stanza(kw, stanza.args[1:]),
                            ["p1"], ["nmax", "visibility"])
            p1 = _float(args["p1"], "p1", 0.0, 1.0)
            nmax = _int(args["nmax"], "nmax") if "nmax" in args else 4
            if nmax < 1:
                tok = args["nmax"]
                raise DslError(f"nmax={nmax} must be >= 1", tok.line, tok.col)
            vis = (_float(args["visibility"], "visibility", 0.0, 1.0)
                   if "visibility" in args else 1.0)
            try:
                r = coupling_from_rate(p1)
            except ConfigError as exc:
                tok = args["p1"]
                raise DslError(str(exc), tok.line, tok.col,
                               "the pair probability peaks at 8/27") from None
            source = SpdcParams(r=r, n_max=nmax)
            noise = SourceNoise(visibility=vis)
        elif word == "bs":
            args = _kv_args(stanza, ["in", "refl", "trans", "R"])
            if args["trans"].text == args["refl"].text:
                tok = args["trans"]
                raise DslError(f"refl and trans are both {tok.text!r}",
                               tok.line, tok.col, "the outputs must differ")
            elements.append(BsDecl(input=args["in"].text,
                                   reflected_out=args["refl"].text,
                                   transmitted_out=args["trans"].text,
                                   R=_float(args["R"], "R", 0.0, 1.0)))
        elif word == "hwp":
            args = _kv_args(stanza, ["on", "angle", "out"])
            out_tok = args["out"]
            parts = out_tok.text.split(",")
            if (len(parts) != 2 or parts[0] == parts[1]
                    or not all(re.fullmatch(_POL_RE, p) for p in parts)):
                raise DslError(f"out must be two different polarization "
                               f"labels, got {out_tok.text!r}", out_tok.line,
                               out_tok.col, "e.g. out=xp,yp")
            angle = _float(args["angle"], "angle")
            if not (-90.0 < angle <= 90.0):
                tok = args["angle"]
                raise DslError(f"angle={angle:g} outside (-90, 90]",
                               tok.line, tok.col)
            elements.append(HwpDecl(target=args["on"].text, angle_deg=angle,
                                    out_pols=(parts[0], parts[1])))
        elif word == "pbs":
            args = _kv_args(stanza, ["on"])
            elements.append(PbsDecl(target=args["on"].text))
        elif word == "detector":
            args = _kv_args(stanza, ["id", "mode"],
                            ["kind", "eta", "dark", "window"])
            det_id = args["id"].text
            if any(d.id == det_id for d in detectors):
                tok = args["id"]
                raise DslError(f"duplicate detector id {det_id!r}",
                               tok.line, tok.col, "ids must be unique")
            kind_tok = args.get("kind")
            kind = kind_tok.text if kind_tok else THRESHOLD
            if kind not in (THRESHOLD, NUMBER_RESOLVING):
                raise DslError(f"kind must be threshold or pnr, got {kind!r}",
                               kind_tok.line, kind_tok.col)
            det_mode = _mode(args["mode"])
            eta = _float(args["eta"], "eta", 0.0, 1.0) if "eta" in args else 1.0
            dark = (_float(args["dark"], "dark", 0.0, math.inf)
                    if "dark" in args else 0.0)
            window = (_float(args["window"], "window", 0.0, math.inf)
                      if "window" in args else 0.0)
            if not dark * window < 1.0:
                # a finite window leaves the dark rate to blame
                tok = args["dark"] if window < math.inf else args["window"]
                raise DslError(f"dark probability dark*window={dark * window:g} "
                               "outside [0, 1)", tok.line, tok.col,
                               "dark is counts per second, window seconds")
            detectors.append(DetectorSpec(id=det_id, mode=det_mode, kind=kind,
                                          coupling=eta, dark_rate=dark,
                                          window=window))
        elif word == "herald":
            if not stanza.args:
                raise DslError("herald needs trigger detector ids",
                               kw.line, kw.col, "list four detector ids")
            herald_ids = tuple(t.text for t in stanza.args)
        elif word == "basis":
            if len(stanza.args) != 2:
                raise DslError("basis needs exactly two settings", kw.line,
                               kw.col, f"e.g. basis {BASES[0]} {BASES[0]}")
            for tok in stanza.args:
                if tok.text not in BASES:
                    raise DslError(f"basis must be one of {'/'.join(BASES)}, "
                                   f"got {tok.text!r}", tok.line, tok.col)
            bases.append((stanza.args[0].text, stanza.args[1].text))
        elif word in COUNT_LOW:
            if len(stanza.args) != 1:
                raise DslError(f"{word} needs one integer", kw.line, kw.col)
            counts[word] = _int(stanza.args[0], word, COUNT_LOW[word])
        else:
            raise DslError(f"unknown keyword {word!r}", kw.line, kw.col,
                           "known: source bs hwp pbs detector herald basis "
                           "pulses seed")

    if source is None:
        raise DslError("no source stanza", 1, 1,
                       "add: source spdc p1=<float> nmax=<int> visibility=<float>")
    return ExperimentConfig(source=source, noise=noise,
                            elements=tuple(elements),
                            detectors=tuple(detectors),
                            herald_ids=herald_ids, bases=tuple(bases),
                            **counts)


def _fmt(value: float) -> str:
    return format(value, ".9g")


def _element_line(decl: ElementDecl) -> str:
    """An element's canonical stanza, which also names it in diagnostics."""
    if isinstance(decl, BsDecl):
        return (f"bs R={_fmt(decl.R)} in={decl.input} "
                f"refl={decl.reflected_out} trans={decl.transmitted_out}")
    if isinstance(decl, HwpDecl):
        return (f"hwp angle={_fmt(decl.angle_deg)} on={decl.target} "
                f"out={decl.out_pols[0]},{decl.out_pols[1]}")
    return f"pbs on={decl.target}"


def _source_line(config: ExperimentConfig) -> str:
    return (f"source spdc nmax={config.source.n_max} "
            f"p1={_fmt(pair_probability(1, config.source.r))} "
            f"visibility={_fmt(config.noise.visibility)}")


def serialize(config: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(c)) structurally equals c.
    Elements keep their declared order, which is the propagation order."""
    lines = [_source_line(config)]
    lines += [_element_line(decl) for decl in config.elements]
    for det in sorted(config.detectors, key=lambda d: d.id):
        lines.append(f"detector dark={_fmt(det.dark_rate)} eta={_fmt(det.eta)} "
                     f"id={det.id} kind={det.kind} "
                     f"mode={det.mode[0]}:{det.mode[1]} "
                     f"window={_fmt(det.window)}")
    if config.herald_ids:
        lines.append("herald " + " ".join(config.herald_ids))
    for b1, b2 in sorted(config.bases):
        lines.append(f"basis {b1} {b2}")
    lines.append(f"pulses {config.pulses}")
    lines.append(f"seed {config.seed}")
    return "\n".join(lines) + "\n"


def splitter_warnings(config: ExperimentConfig) -> list[str]:
    """Warnings for `herald`, which reports R and eff_theory at the first
    splitter's R (its herald, efficiency and four-pair correction take each
    splitter at its own): one per splitter whose R differs, among those
    that light reaching a detector passes through (`path_exponents`).
    `sweep` sets every splitter's R and `montecarlo` reads none of them."""
    splitters = [d for d in config.elements if isinstance(d, BsDecl)]
    try:
        paths = [path_exponents(config.transforms()).get(d.mode, ())
                 for d in config.detectors]
    except ConfigError:  # the curve stack reports it; every splitter warns
        paths = [(1,) * 2 * len(splitters)]
    return [f"warning: {_element_line(splitters[0])} and "
            f"{_element_line(other)} differ in R; only herald's R and "
            f"eff_theory use the first's R={_fmt(splitters[0].R)}"
            for s, other in enumerate(splitters[1:], start=1)
            if other.R != splitters[0].R
            and any(any(path[2 * s:2 * s + 2]) for path in paths)]


def four_pair_warnings(config: ExperimentConfig) -> list[str]:
    """A warning for `herald` and `sweep` when their four-pair correction
    (nmax >= 4) cannot follow the config's triggers: it heralds through the
    config's circuit on the triggers' modes, but on dark-free threshold
    triggers at their mean efficiency, so a number-resolving trigger, or
    efficiencies that differ, go unmodelled."""
    triggers = config.trigger_detectors()
    mean = config.mean_trigger_eta()
    unequal = len({d.eta for d in triggers}) > 1
    named = [f"{d.id!r} (kind={d.kind} eta={_fmt(d.eta)})" for d in triggers
             if d.kind != THRESHOLD or (unequal and d.eta != mean)]
    if config.source.n_max < 4 or not named:
        return []
    return [f"warning: four_pair_correction heralds on dark-free threshold "
            f"triggers at their mean eta={_fmt(mean)}, not on triggers "
            f"{', '.join(named)}"]


def table_terms(config: ExperimentConfig) -> int:
    """A bound on the post-circuit Fock terms of `montecarlo`'s mixture: at
    most C(n + M_a - 1, n) C(n + M_b - 1, n) per n-pair branch of
    `config.source_cells`, over the M_a and M_b modes a source arm feeds."""
    columns = config.circuit().columns
    fed = [len({m for s, col in columns.items() if s[0] == a for _, m in col})
           for a in {s for s, _ in SOURCE_MODES}]
    return sum(math.prod(math.comb(n + m - 1, n) for m in fed)
               for n, _, _ in source_cells(config.source, config.noise))


def table_memory_warnings(config: ExperimentConfig) -> list[str]:
    """A warning, naming the source stanza, where `montecarlo`'s tables may
    peak above 1 GB: 40 MB plus 400 bytes per `table_terms` term, above the
    37.8-98.8 MB measured on paper_5050 and paper_7030 at nmax 4-8."""
    mb = 40 + table_terms(config) * 400 / 2 ** 20
    return [f"warning: {_source_line(config)}: montecarlo's click tables may "
            f"take up to {mb:,.0f} MB; lower nmax if that does not fit"
            ] if mb > 1024 else []


def validate(config: ExperimentConfig) -> list[str]:
    """Cross-reference checks; returns diagnostics instead of raising."""
    diagnostics: list[str] = []
    ids = {d.id for d in config.detectors}
    # every command heralds on four triggers
    if len(config.herald_ids) != 4:
        diagnostics.append("error: herald requires four trigger detectors, "
                           f"got {len(config.herald_ids)}")
    for det_id in dict.fromkeys(config.herald_ids):
        if det_id not in ids:
            diagnostics.append(f"error: herald names unknown detector "
                               f"{det_id!r}")
        elif config.herald_ids.count(det_id) > 1:
            diagnostics.append(f"error: herald names detector {det_id!r} "
                               "more than once")
    if config.source.n_max < 3:
        diagnostics.append(f"warning: nmax={config.source.n_max} cannot "
                           "emit the three pairs a herald needs")
    for b1, b2 in dict.fromkeys(config.bases):
        if (n := config.bases.count((b1, b2))) > 1:
            diagnostics.append(f"error: basis {b1} {b2} is declared {n} "
                               "times; each setting is drawn once")

    # walk the transforms `config.circuit()` composes, from the source
    # modes; `live` maps each mode that carries light to the stanza feeding it
    live = dict.fromkeys(SOURCE_MODES, "source")
    for decl in config.elements:
        stanza, transform = _element_line(decl), element_transform(decl)
        if transform is None:
            if not any(m[0] == decl.target for m in live):
                diagnostics.append(f"error: {stanza}: arm {decl.target!r} "
                                   "carries no modes")
            continue
        for m in transform.columns:
            if live.pop(m, None) is None:
                diagnostics.append(f"error: {stanza} reads mode {m[0]}:{m[1]}"
                                   " which no element produces")
        for m in dict.fromkeys(m for col in transform.columns.values()
                               for _, m in col):
            if m in live:
                diagnostics.append(f"error: {stanza} and {live[m]} both "
                                   f"feed mode {m[0]}:{m[1]}")
            live[m] = stanza
    # each mode is read once: by one detector, and by no trigger if it lies
    # on an output arm, whose modes the herald reads together
    arms = config.output_arms()
    watcher: dict[tuple[str, str], str] = {}
    for det in config.detectors:
        mode = f"{det.mode[0]}:{det.mode[1]}"
        if det.mode not in live:
            diagnostics.append(f"error: detector {det.id!r} watches mode "
                               f"{mode} which no element produces")
        if det.mode in watcher:
            diagnostics.append(f"error: detectors {watcher[det.mode]!r} and "
                               f"{det.id!r} both watch mode {mode}")
        elif det.id in config.herald_ids and det.mode[0] in arms:
            diagnostics.append(f"error: trigger {det.id!r} watches mode "
                               f"{mode} on output arm {det.mode[0]!r}")
        watcher.setdefault(det.mode, det.id)
    if len(arms) != 2:
        diagnostics.append("error: heralding needs exactly two output arms; "
                           f"the output detectors sit on arms {list(arms)}")
    for arm in arms:
        pols = sorted(pol for spatial, pol in live if spatial == arm)
        if len(pols) != 2:
            diagnostics.append(f"error: output arm {arm!r} carries modes "
                               f"{pols}; heralding reads one qubit from two")
    return diagnostics
