"""Static architecture recognition and blow-up prediction.

The paper frames every multiplier as ``PPG o PPA o FSA`` — partial
products, accumulation, final-stage adder — and shows that verification
cost is governed by *which* family sits in each stage and whether
optimization smeared the stage boundaries.  This module answers both
questions **statically** (no rewriting, no simulation): it segments an
ingested AIG into the three stage regions, classifies each stage
against the known families, and folds the structural evidence into a
blow-up risk score the pipeline can act on before any polynomial work.

Recognition signals, all derived from cut-based atomic blocks
(:func:`repro.core.atomic.detect_atomic_blocks`) plus operand-support
bitmasks:

* **PPG** — a simple (AND-matrix) generator leaves one ``a_i AND b_j``
  leaf product per bit pair, every one with single-bit support in both
  operands.  A Booth generator instead plants *recoder* nodes whose
  support lies entirely inside one operand (the ``neg/one/two`` digit
  signals span two or three multiplier bits and no multiplicand bit).
* **FSA** — a ripple-carry adder is a chain of full adders linked
  carry-to-input whose sums drive primary outputs; parallel
  (lookahead/prefix/select) adders break that chain.  We detect the
  longest PO-driving carry chain and compare it with the output count.
* **PPA** — an array accumulator absorbs one fresh partial-product row
  per level: its block-DAG level widths are flat, every level consumes
  fresh (non-block) inputs, and its depth tracks the row count.  Tree
  accumulators either compress eagerly (Wallace / balanced-delay:
  front-loaded, geometrically decaying level widths) or lazily (Dadda:
  a level chain much deeper than the row count).

Findings are emitted as ``RS0xx`` diagnostics through the existing
:class:`~repro.analysis.diagnostics.DiagnosticReport` machinery, so
``repro analyze`` exports text, JSON and SARIF exactly like lint does.
"""

from __future__ import annotations

import dataclasses
import json

from repro.aig.ops import fanout_map
from repro.analysis.diagnostics import DiagnosticReport
from repro.core.atomic import block_coverage

#: Stage labels the classifier can emit.
PPG_LABELS = ("simple", "booth", "unknown")
PPA_LABELS = ("array", "tree", "unknown")
FSA_LABELS = ("ripple", "lookahead", "unknown")

#: Risk-score component weights (see DESIGN.md §8 for the derivation
#: against observed peak ``SP_i`` values in the run-history store).
RISK_UNCOVERED_WEIGHT = 3.0
RISK_BOOTH_WEIGHT = 25.0
RISK_SMEAR_WEIGHT = 15.0
#: ``score / num_ands`` above this factor flags RS020.
RISK_HIGH_FACTOR = 3.0

#: Boundary-smearing (RS010) fires when more than this many gates are
#: shared between the PPA and FSA cones (or 2.5% of the AND count,
#: whichever is larger) — calibrated so clean generated designs stay
#: below it while `map3`-style technology mapping trips it.
SMEAR_GATE_FLOOR = 10
#: Direct PPG-to-FSA edges (RS013) tolerated before warning; only
#: meaningful for parallel adders (a ripple chain legitimately absorbs
#: low partial products).
CROSS_EDGE_FLOOR = 4
#: Atomic-block coverage below this fraction flags RS011.
LOW_COVERAGE_FRACTION = 0.35
#: Stage confidence below this flags RS012.
LOW_CONFIDENCE = 0.6


@dataclasses.dataclass(frozen=True)
class StageGuess:
    """One stage's classification: label, confidence, raw features."""

    stage: str                  # "ppg" | "ppa" | "fsa"
    label: str
    confidence: float
    features: dict = dataclasses.field(default_factory=dict)

    def as_dict(self):
        return {"stage": self.stage, "label": self.label,
                "confidence": round(self.confidence, 3),
                "features": dict(self.features)}


@dataclasses.dataclass
class ArchitectureReport:
    """The full result of one static architecture analysis.

    ``regions`` maps stage name to a sorted list of AND variables; the
    FSA region's *block boundary* is the slice point the ROADMAP's
    cone-parallel rewriting item needs.  ``report`` carries the RS0xx
    diagnostics and reuses the lint export machinery.
    """

    subject: str
    width_a: int | None
    width_b: int | None
    ppg: StageGuess
    ppa: StageGuess
    fsa: StageGuess
    regions: dict
    boundary: dict
    risk: dict
    coverage: dict
    report: DiagnosticReport

    @property
    def architecture(self):
        """``simple-tree-ripple``-style summary label."""
        return "-".join((self.ppg.label, self.ppa.label, self.fsa.label))

    @property
    def stages(self):
        return {"ppg": self.ppg, "ppa": self.ppa, "fsa": self.fsa}

    @property
    def recognized(self):
        return "unknown" not in (self.ppg.label, self.ppa.label,
                                 self.fsa.label)

    def as_dict(self):
        return {
            "subject": self.subject,
            "architecture": self.architecture,
            "width_a": self.width_a,
            "width_b": self.width_b,
            "stages": {name: guess.as_dict()
                       for name, guess in self.stages.items()},
            "regions": {name: len(vars_) for name, vars_ in
                        self.regions.items()},
            "boundary": dict(self.boundary),
            "risk": dict(self.risk),
            "coverage": dict(self.coverage),
            "diagnostics": self.report.as_dict(),
        }

    def to_json(self, path=None, indent=2):
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def to_sarif(self):
        return self.report.to_sarif()

    def render(self):
        """Multi-line human-readable summary."""
        head = f"{self.subject}: " if self.subject else ""
        lines = [f"{head}architecture {self.architecture} "
                 f"(risk {self.risk['score']:.0f}, "
                 f"factor {self.risk['factor']:.2f})"]
        for name, guess in self.stages.items():
            lines.append(f"  {name}: {guess.label} "
                         f"(confidence {guess.confidence:.2f})")
        for diag in self.report.sorted():
            lines.append("  " + diag.render())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Feature extraction
# ----------------------------------------------------------------------

def operand_supports(aig, width_a, width_b):
    """Per-variable support bitmasks over the two operand words.

    Returns ``(sup_a, sup_b)`` lists indexed by variable; bit ``i`` of
    ``sup_a[v]`` is set when input ``a_i`` lies in ``v``'s cone.
    """
    sup_a = [0] * aig.num_vars
    sup_b = [0] * aig.num_vars
    inputs = list(aig.inputs)
    for i, v in enumerate(inputs[:width_a]):
        sup_a[v] = 1 << i
    for i, v in enumerate(inputs[width_a:width_a + width_b]):
        sup_b[v] = 1 << i
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    for v in aig.and_vars():
        v0 = fanin0[v] >> 1
        v1 = fanin1[v] >> 1
        sup_a[v] = sup_a[v0] | sup_a[v1]
        sup_b[v] = sup_b[v0] | sup_b[v1]
    return sup_a, sup_b


def _popcount(x):
    return bin(x).count("1")


def _block_dag(aig, blocks):
    """Shared block-DAG geometry: output->block map and per-block level.

    A block's level is the longest chain of block-output-to-block-input
    dependencies below it (non-block glue logic is not counted — level
    is a *stage* depth, not a gate depth).
    """
    by_out = {}
    for index, blk in enumerate(blocks):
        by_out[blk.carry_var] = index
        by_out[blk.sum_var] = index
    level = [0] * len(blocks)
    order = sorted(range(len(blocks)),
                   key=lambda i: max(blocks[i].output_vars))
    for i in order:
        depth = 0
        for inp in blocks[i].inputs:
            j = by_out.get(inp)
            if j is not None and j != i:
                depth = max(depth, level[j] + 1)
        level[i] = depth
    return by_out, level


def _po_carry_chain(blocks, po_refs):
    """The longest carry-linked chain of blocks whose sums drive POs.

    Returns the chain as a list of block indices (may be empty).  This
    is the ripple-carry signature: ``carry(B_i)`` feeds an input of
    ``B_{i+1}`` and every sum exits as a primary output.
    """
    by_carry = {blk.carry_var: i for i, blk in enumerate(blocks)}
    succ = {i: [] for i in range(len(blocks))}
    for j, blk in enumerate(blocks):
        for inp in blk.inputs:
            i = by_carry.get(inp)
            if i is not None and i != j:
                succ[i].append(j)
    po_sum = {i for i, blk in enumerate(blocks)
              if po_refs.get(blk.sum_var, 0)}
    best = {}

    def chain(i):
        hit = best.get(i)
        if hit is not None:
            return hit
        best[i] = (i,)  # cycle guard; the block DAG is acyclic anyway
        top = (i,)
        for j in succ[i]:
            if j in po_sum:
                cand = (i,) + chain(j)
                if len(cand) > len(top):
                    top = cand
        best[i] = top
        return top

    longest = ()
    for i in sorted(po_sum, reverse=True):
        cand = chain(i)
        if len(cand) > len(longest):
            longest = cand
    return list(longest)


# ----------------------------------------------------------------------
# Stage classifiers
# ----------------------------------------------------------------------

def classify_ppg(aig, width_a, width_b, sup_a, sup_b):
    """Simple (AND-matrix) vs Booth partial-product generation."""
    inputs = list(aig.inputs)
    a_vars = set(inputs[:width_a])
    b_vars = set(inputs[width_a:width_a + width_b])
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    leaf_products = []
    recoders = []
    for v in aig.and_vars():
        v0 = fanin0[v] >> 1
        v1 = fanin1[v] >> 1
        both_inputs = ((v0 in a_vars and v1 in b_vars)
                       or (v0 in b_vars and v1 in a_vars))
        if both_inputs and _popcount(sup_a[v]) == 1 \
                and _popcount(sup_b[v]) == 1:
            leaf_products.append(v)
        na = _popcount(sup_a[v])
        nb = _popcount(sup_b[v])
        if (na >= 2 and nb == 0) or (nb >= 2 and na == 0):
            recoders.append(v)
    expected = width_a * width_b
    features = {"leaf_products": len(leaf_products),
                "expected_products": expected,
                "recoders": len(recoders)}
    # A real Booth recoder plants several single-operand nodes per digit;
    # optimization passes occasionally synthesize one or two as rewrite
    # artifacts, so a handful is not evidence.
    booth_floor = max(4, min(width_a, width_b))
    if len(recoders) >= booth_floor:
        # Booth digit logic spans >= n/2 digits, several recoder nodes
        # each; confidence saturates once a digit's worth is present.
        confidence = min(1.0, 0.5 + len(recoders)
                         / (2.0 * max(2, min(width_a, width_b))))
        label = "booth"
        region = set(recoders)
        # The Booth PPG also owns the magnitude/row-bit logic: nodes
        # whose multiplicand support stays within one digit's two-bit
        # window while the recoder side spans at most one digit triple.
        for v in aig.and_vars():
            na = _popcount(sup_a[v])
            nb = _popcount(sup_b[v])
            if 0 < nb <= 2 and na <= 3:
                region.add(v)
            elif 0 < na <= 2 and nb <= 3:
                region.add(v)
    elif leaf_products:
        confidence = min(1.0, 0.4 + 0.6 * len(leaf_products) / expected)
        label = "simple"
        region = set(leaf_products)
    else:
        confidence = 0.0
        label = "unknown"
        region = set()
    return StageGuess("ppg", label, confidence, features), region


def classify_fsa(blocks, chain, num_outputs):
    """Ripple vs parallel (lookahead-like) final-stage adder."""
    threshold = max(2, num_outputs - 3)
    length = len(chain)
    features = {"po_chain": length, "outputs": num_outputs,
                "threshold": threshold,
                "po_blocks": sum(1 for blk in blocks)}
    if not blocks:
        return StageGuess("fsa", "unknown", 0.0, features)
    if length >= threshold:
        margin = (length - threshold) / max(1, num_outputs - threshold)
        return StageGuess("fsa", "ripple", min(1.0, 0.7 + 0.3 * margin),
                          features)
    margin = (threshold - length) / threshold
    return StageGuess("fsa", "lookahead", min(1.0, 0.5 + 0.5 * margin),
                      features)


def classify_ppa(blocks, ppa_indices, level, by_out, rows_estimate):
    """Array (linear absorption) vs tree (eager or lazy compression).

    Three independent signals, all over the block DAG restricted to the
    non-FSA blocks:

    * *lazy tail* — a level chain deeper than the row count is Dadda's
      signature (it cannot arise from a linear array, which needs at
      most ``rows - 2`` carry-save steps);
    * *center of mass* — an array's flat level-width histogram puts the
      histogram's center of mass at ``~0.5 * depth``; eager trees
      front-load it below ``~0.4``;
    * *linear absorption* — an array consumes fresh (non-block) inputs
      at every level; trees swallow nearly all fresh inputs at level 0.
    """
    if not ppa_indices:
        return StageGuess("ppa", "unknown", 0.0, {"blocks": 0})
    depths = [level[i] for i in ppa_indices]
    dmax = max(depths)
    hist = [0] * (dmax + 1)
    for d in depths:
        hist[d] += 1
    fresh_levels = set()
    for i in ppa_indices:
        fresh = sum(1 for inp in blocks[i].inputs if inp not in by_out)
        if fresh and level[i] >= 1:
            fresh_levels.add(level[i])
    total = sum(hist)
    com = sum(d * n for d, n in enumerate(hist)) / total
    com_norm = com / dmax if dmax else 0.0
    absorption = len(fresh_levels) / dmax if dmax else 0.0
    features = {"blocks": len(ppa_indices), "depth": dmax,
                "rows_estimate": rows_estimate,
                "level_widths": hist,
                "center_of_mass": round(com_norm, 3),
                "absorption": round(absorption, 3)}
    if dmax == 0:
        return StageGuess("ppa", "unknown", 0.2, features)
    lazy_margin = dmax - (rows_estimate - 2)
    if lazy_margin > 0:
        # Deeper than a linear array could ever be: lazy (Dadda-style)
        # compression chain => tree.
        confidence = min(1.0, 0.6 + 0.1 * lazy_margin)
        return StageGuess("ppa", "tree", confidence, features)
    if com_norm >= 0.44 and absorption >= 0.8:
        confidence = min(1.0, 0.5 + com_norm / 2 + 0.2 * absorption)
        return StageGuess("ppa", "array", min(confidence, 0.95), features)
    # Front-loaded histogram and/or level-0 absorption: eager tree.
    confidence = min(1.0, 0.5 + (0.44 - com_norm) + (0.8 - absorption) / 2)
    return StageGuess("ppa", "tree", max(0.5, min(confidence, 0.95)),
                      features)


# ----------------------------------------------------------------------
# Regions and boundaries
# ----------------------------------------------------------------------

def _fsa_region(aig, blocks, chain, ppg_region, po_refs):
    """AND variables owned by the final-stage adder.

    For a ripple chain the blocks themselves are the adder.  For a
    parallel adder we walk backward from the PO drivers and stop at any
    block output or PPG variable — the lookahead / prefix network is
    exactly the glue between the accumulator's output word and the POs.
    """
    chain_set = set(chain)
    region = set()
    for i in chain_set:
        region |= set(blocks[i].internal)
    block_outs = set()
    for i, blk in enumerate(blocks):
        if i not in chain_set:
            block_outs.update(blk.output_vars)
            block_outs.update(blk.internal)
    inputs = set(aig.inputs)
    stack = [lit >> 1 for lit in aig.outputs]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen or v in region:
            continue
        seen.add(v)
        if v in inputs or v == 0 or v in block_outs or v in ppg_region:
            continue
        region.add(v)
        f0, f1 = aig.fanins(v)
        stack.append(f0 >> 1)
        stack.append(f1 >> 1)
    return region


def stage_regions(aig, blocks, chain, ppg_region, po_refs):
    """Partition the AND variables into the three stage regions."""
    fsa = _fsa_region(aig, blocks, chain, ppg_region, po_refs)
    ppg = set(ppg_region) - fsa
    all_ands = set(aig.and_vars())
    ppa = all_ands - fsa - ppg
    return {"ppg": sorted(ppg), "ppa": sorted(ppa), "fsa": sorted(fsa)}


def boundary_metrics(aig, regions, fanouts, po_refs):
    """Cross-boundary structure: smeared gates and PPG->FSA edges.

    ``shared`` counts gates whose fanout feeds both the PPA and the FSA
    region — in a cleanly staged design the accumulator's output word
    feeds *only* the adder, so sharing is direct evidence of boundary
    smearing by optimization.  ``ppg_to_fsa`` counts partial products
    consumed directly by the adder (long-range wiring that skips the
    accumulator).
    """
    where = {}
    for name, vars_ in regions.items():
        for v in vars_:
            where[v] = name
    shared = 0
    boundary = 0
    ppg_to_fsa = 0
    for name in ("ppg", "ppa"):
        for v in regions[name]:
            sinks = {where.get(w) for w in fanouts.get(v, ())}
            sinks.discard(None)
            if "fsa" in sinks:
                boundary += 1
                if name == "ppa" and sinks - {"fsa"}:
                    shared += 1
                if name == "ppg":
                    ppg_to_fsa += 1
    return {"boundary": boundary, "shared": shared,
            "ppg_to_fsa": ppg_to_fsa,
            "smear_ratio": round(shared / boundary, 4) if boundary else 0.0}


# ----------------------------------------------------------------------
# Risk
# ----------------------------------------------------------------------

def risk_score(aig, coverage, ppg_guess, boundary):
    """Static blow-up risk: size inflated by structural hazard factors.

    ``score = ands * (1 + Wu*uncovered) * (1 + Wb*booth_density)
                   * (1 + Ws*smear_density)``

    ``uncovered`` is the non-atomic-block gate fraction (gates the
    compact word-level substitution cannot absorb), ``booth_density``
    the recoder-node fraction (Booth rows blow up the intermediate
    ``SP_i``), ``smear_density`` the fraction of gates shared between
    the PPA and FSA cones (smearing defeats the vanishing rules).  The
    factor (score / ands) is the size-independent hazard multiplier.
    """
    ands = max(1, aig.num_ands)
    uncovered = 1.0 - coverage.get("fraction", 0.0)
    booth_density = ppg_guess.features.get("recoders", 0) / ands
    smear = boundary.get("shared", 0) / ands
    factor = ((1.0 + RISK_UNCOVERED_WEIGHT * uncovered)
              * (1.0 + RISK_BOOTH_WEIGHT * booth_density)
              * (1.0 + RISK_SMEAR_WEIGHT * smear))
    return {"score": round(ands * factor, 2),
            "factor": round(factor, 3),
            "uncovered": round(uncovered, 4),
            "booth_density": round(booth_density, 4),
            "smear_density": round(smear, 4),
            "ands": ands}


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples")

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        rank = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) \
                    and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                rank[order[k]] = avg
            i = j + 1
        return rank

    rx = ranks(xs)
    ry = ranks(ys)
    n = len(xs)
    mean = (n + 1) / 2.0
    num = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    den_x = sum((a - mean) ** 2 for a in rx) ** 0.5
    den_y = sum((b - mean) ** 2 for b in ry) ** 0.5
    if den_x == 0 or den_y == 0:
        return 0.0
    return num / (den_x * den_y)


def risk_calibration(store, entries, method="dyposub"):
    """Compare static risk scores with observed peak ``SP_i`` values.

    ``entries`` is ``[(design, optimization, risk_score), ...]``; peaks
    come from the run-history store's ``max_poly_size`` column (the
    newest run of each series).  Returns the correlation plus the
    top/bottom-3 agreement the CI gate asserts on.
    """
    risks = []
    peaks = []
    labels = []
    for design, optimization, score in entries:
        history = store.history(design, optimization, method,
                                "max_poly_size")
        if not history:
            continue
        risks.append(score)
        peaks.append(history[-1][1])
        labels.append(f"{design}/{optimization}")
    if len(risks) < 2:
        return {"samples": len(risks), "spearman": None, "labels": labels}

    def top(values, count, reverse):
        order = sorted(range(len(values)), key=lambda i: values[i],
                       reverse=reverse)
        return set(order[:count])

    count = min(3, len(risks) // 2)
    agreement = {
        "top": len(top(risks, count, True) & top(peaks, count, True)),
        "bottom": len(top(risks, count, False) & top(peaks, count, False)),
        "count": count,
    }
    return {"samples": len(risks),
            "spearman": round(spearman(risks, peaks), 4),
            "agreement": agreement,
            "risks": risks, "peaks": peaks, "labels": labels}


# ----------------------------------------------------------------------
# Region lookup
# ----------------------------------------------------------------------

#: Stage-region precedence for majority-vote ties: a component that
#: straddles a boundary belongs to the *later* stage (its outputs are
#: what the rewriting substitutes, and those sit downstream).
_STAGE_PRECEDENCE = ("fsa", "ppa", "ppg")


def component_stage_map(arch, components):
    """Map component index -> stage region for one analyzed design.

    ``components`` is the pipeline's component list
    (:class:`repro.core.components.Component`); each is located by
    majority vote over its internal AND cone plus its output variables,
    breaking ties toward the later pipeline stage (see
    ``_STAGE_PRECEDENCE``).  Variables outside every region (inputs)
    vote for no stage, so an all-unknown component maps to None.  This
    is the commit -> region provenance the attribution layer keys on: a
    ``step`` event names the component, the component names its vars,
    the vars name the stage.
    """
    where = {var: stage for stage, vars_ in arch.regions.items()
             for var in vars_}
    mapping = {}
    for comp in components:
        votes = {}
        for var in set(comp.output_vars) | set(comp.internal):
            stage = where.get(var)
            if stage is not None:
                votes[stage] = votes.get(stage, 0) + 1
        best = max(votes.values(), default=None)
        mapping[comp.index] = next(
            (stage for stage in _STAGE_PRECEDENCE
             if votes.get(stage, 0) == best), None)
    return mapping


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def analyze_aig(aig, blocks, width_a=None, subject=""):
    """Run the full static architecture analysis over one AIG.

    ``blocks`` are the design's atomic HA/FA blocks, as returned by
    :func:`repro.core.atomic.detect_atomic_blocks` for this same AIG;
    the caller detects them once and shares them with everything else
    that needs them.
    """
    from repro.analysis.lint import infer_widths

    report = DiagnosticReport(subject=subject or aig.name)
    wa, wb, from_names = infer_widths(aig, width_a)
    unknown = StageGuess("ppg", "unknown", 0.0)
    if wa is None or aig.num_ands == 0 or not aig.outputs:
        report.add("RS002", "architecture analysis inconclusive: "
                   "no operand split or empty design",
                   inputs=aig.num_inputs, ands=aig.num_ands)
        empty = {"ppg": [], "ppa": [], "fsa": []}
        zero = {"boundary": 0, "shared": 0, "ppg_to_fsa": 0,
                "smear_ratio": 0.0}
        coverage = {"blocks": 0, "covered": 0, "ands": aig.num_ands,
                    "fraction": 0.0}
        risk = {"score": float(aig.num_ands), "factor": 1.0,
                "uncovered": 1.0, "booth_density": 0.0,
                "smear_density": 0.0, "ands": aig.num_ands}
        return ArchitectureReport(
            subject=subject or aig.name, width_a=wa, width_b=wb,
            ppg=unknown, ppa=dataclasses.replace(unknown, stage="ppa"),
            fsa=dataclasses.replace(unknown, stage="fsa"),
            regions=empty, boundary=zero, risk=risk, coverage=coverage,
            report=report)

    sup_a, sup_b = operand_supports(aig, wa, wb)
    coverage = block_coverage(aig, blocks)
    fanouts, po_refs = fanout_map(aig)
    by_out, level = _block_dag(aig, blocks)
    chain = _po_carry_chain(blocks, po_refs)

    ppg_guess, ppg_region = classify_ppg(aig, wa, wb, sup_a, sup_b)
    fsa_guess = classify_fsa(blocks, chain, len(aig.outputs))
    fsa_chain = chain if fsa_guess.label == "ripple" else []
    # Blocks that belong to the adder must not distort the accumulator's
    # level histogram: drop the detected ripple chain plus every block
    # whose sum exits straight to a primary output (the adder's own
    # cells, or the last carry-save row feeding it).
    excluded = set(fsa_chain)
    excluded.update(i for i, blk in enumerate(blocks)
                    if po_refs.get(blk.sum_var, 0))
    ppa_indices = [i for i in range(len(blocks)) if i not in excluded]
    rows_estimate = (wa if ppg_guess.label != "booth"
                     else 2 * (wa // 2 + 1) + 1)
    ppa_guess = classify_ppa(blocks, ppa_indices, level, by_out,
                             rows_estimate)
    regions = stage_regions(aig, blocks, fsa_chain, ppg_region, po_refs)
    boundary = boundary_metrics(aig, regions, fanouts, po_refs)
    risk = risk_score(aig, coverage, ppg_guess, boundary)

    arch = ArchitectureReport(
        subject=subject or aig.name, width_a=wa, width_b=wb,
        ppg=ppg_guess, ppa=ppa_guess, fsa=fsa_guess, regions=regions,
        boundary=boundary, risk=risk, coverage=coverage, report=report)

    report.add("RS001",
               f"architecture recognized as {arch.architecture} "
               f"(risk factor {risk['factor']:.2f})",
               architecture=arch.architecture,
               risk_factor=risk["factor"],
               widths=[wa, wb], from_names=from_names)
    smear_limit = max(SMEAR_GATE_FLOOR, int(0.025 * aig.num_ands))
    if boundary["shared"] > smear_limit:
        report.add("RS010",
                   f"boundary smearing detected: {boundary['shared']} "
                   f"gates shared between PPA and FSA cones",
                   shared=boundary["shared"],
                   boundary=boundary["boundary"])
    if coverage["fraction"] < LOW_COVERAGE_FRACTION:
        report.add("RS011",
                   f"low atomic-block coverage "
                   f"({coverage['fraction']:.0%} of AND nodes): "
                   f"word-level substitution will fall back to "
                   f"gate-level cones",
                   fraction=coverage["fraction"],
                   covered=coverage["covered"], ands=coverage["ands"])
    for guess in (ppg_guess, ppa_guess, fsa_guess):
        if guess.confidence < LOW_CONFIDENCE:
            report.add("RS012",
                       f"low-confidence {guess.stage} classification "
                       f"({guess.label!r} at {guess.confidence:.2f})",
                       stage=guess.stage, label=guess.label,
                       confidence=round(guess.confidence, 3))
    if (fsa_guess.label == "lookahead"
            and boundary["ppg_to_fsa"] > CROSS_EDGE_FLOOR):
        report.add("RS013",
                   f"{boundary['ppg_to_fsa']} partial products feed the "
                   f"final-stage adder directly, skipping the "
                   f"accumulator",
                   edges=boundary["ppg_to_fsa"])
    if risk["factor"] >= RISK_HIGH_FACTOR:
        report.add("RS020",
                   f"high static blow-up risk (factor "
                   f"{risk['factor']:.2f}): expect large intermediate "
                   f"SP_i; consider a modular ring and a deeper prime "
                   f"schedule",
                   factor=risk["factor"], score=risk["score"])
    return arch

