"""Line-oriented experiment description language: parser, validator,
canonical serializer.

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
from dataclasses import dataclass

from .config import (COUNT_END, COUNT_LOW, BsDecl, ElementDecl,
                     ExperimentConfig, HwpDecl, PbsDecl, initial_modes)
from .detect import NUMBER_RESOLVING, THRESHOLD, DetectorSpec
from .fock import ConfigError
from .source import SourceNoise, SpdcParams, coupling_from_rate

BASES = ("HV", "DA", "RL")


class DslError(ConfigError):
    def __init__(self, message: str, line: int, col: int, hint: str = ""):
        self.message = message
        self.line = line
        self.col = col
        self.hint = hint
        text = f"line {line}, col {col}: {message}"
        if hint:
            text += f" ({hint})"
        super().__init__(text)


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Stanza:
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


_POL_RE = re.compile(r"^[a-z][a-z0-9']*$")


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

    for stanza in stanzas:
        kw = stanza.keyword
        word = kw.text
        if word == "source":
            if not stanza.args or stanza.args[0].text != "spdc":
                raise DslError("source kind must be 'spdc'", kw.line, kw.col,
                               "write: source spdc p1=... nmax=... visibility=...")
            if source is not None:
                raise DslError("duplicate source stanza", kw.line, kw.col,
                               "keep a single source line")
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
            elements.append(BsDecl(input=args["in"].text,
                                   reflected_out=args["refl"].text,
                                   transmitted_out=args["trans"].text,
                                   R=_float(args["R"], "R", 0.0, 1.0)))
        elif word == "hwp":
            args = _kv_args(stanza, ["on", "angle", "out"])
            out_tok = args["out"]
            parts = out_tok.text.split(",")
            if len(parts) != 2 or not all(_POL_RE.match(p) for p in parts):
                raise DslError(f"out must be two polarization labels, got "
                               f"{out_tok.text!r}", out_tok.line, out_tok.col,
                               "e.g. out=xp,yp")
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
            if herald_ids:
                raise DslError("duplicate herald stanza", kw.line, kw.col)
            if not stanza.args:
                raise DslError("herald needs trigger detector ids",
                               kw.line, kw.col, "list four detector ids")
            herald_ids = tuple(t.text for t in stanza.args)
        elif word == "basis":
            if len(stanza.args) != 2:
                raise DslError("basis needs exactly two settings", kw.line,
                               kw.col, "e.g. basis HV HV")
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


def _pair_probability_p1(params: SpdcParams) -> float:
    from .source import pair_probability
    return pair_probability(1, params.r)


def serialize(config: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(c)) structurally equals c.
    Elements keep their declared order, which is the propagation order."""
    lines = [f"source spdc nmax={config.source.n_max} "
             f"p1={_fmt(_pair_probability_p1(config.source))} "
             f"visibility={_fmt(config.noise.visibility)}"]
    for decl in config.elements:
        if isinstance(decl, BsDecl):
            lines.append(f"bs R={_fmt(decl.R)} in={decl.input} "
                         f"refl={decl.reflected_out} trans={decl.transmitted_out}")
        elif isinstance(decl, HwpDecl):
            lines.append(f"hwp angle={_fmt(decl.angle_deg)} on={decl.target} "
                         f"out={decl.out_pols[0]},{decl.out_pols[1]}")
        else:
            lines.append(f"pbs on={decl.target}")
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


def validate(config: ExperimentConfig) -> list[str]:
    """Cross-reference checks; returns diagnostics instead of raising."""
    diagnostics: list[str] = []
    ids = {d.id for d in config.detectors}
    if config.herald_ids:
        if len(config.herald_ids) != 4:
            diagnostics.append("error: herald requires four trigger detectors, "
                               f"got {len(config.herald_ids)}")
        for det_id in config.herald_ids:
            if det_id not in ids:
                diagnostics.append(f"error: herald names unknown detector "
                                   f"{det_id!r}")
        if config.source.n_max < 3:
            diagnostics.append(f"warning: nmax={config.source.n_max} cannot "
                               "emit the three pairs a herald needs")

    # walk the circuit to find every mode that can carry photons at the end
    live = set(initial_modes())
    for decl in config.elements:
        if isinstance(decl, BsDecl):
            for pol in ("x", "y"):
                if (decl.input, pol) in live:
                    live.discard((decl.input, pol))
                    live.add((decl.reflected_out, pol))
                    live.add((decl.transmitted_out, pol))
                else:
                    diagnostics.append(f"error: bs input mode "
                                       f"{decl.input}:{pol} is never produced")
        elif isinstance(decl, HwpDecl):
            for pol, out in zip(("x", "y"), decl.out_pols):
                if (decl.target, pol) in live:
                    live.discard((decl.target, pol))
                    live.add((decl.target, out))
                else:
                    diagnostics.append(f"error: hwp target mode "
                                       f"{decl.target}:{pol} is never produced")
        elif isinstance(decl, PbsDecl):
            if not any(m[0] == decl.target for m in live):
                diagnostics.append(f"error: pbs target {decl.target!r} carries "
                                   "no modes")
    for det in config.detectors:
        if det.mode not in live:
            diagnostics.append(f"error: detector {det.id!r} watches mode "
                               f"{det.mode[0]}:{det.mode[1]} which no element "
                               "produces")
    return diagnostics
