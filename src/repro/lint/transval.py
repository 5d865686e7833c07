"""``transval-*`` passes: translation validation as lint findings.

The heavy lifting lives in :mod:`repro.verify`; these passes adapt it
to the lint pipeline.  For each spec they statically prove every
compiled transfer function — the generated concrete Python
(``transval-concrete``) and the symbolic plan (``transval-symbolic``)
— equivalent to the reference IR semantics over *all* decodable
operand values and machine pre-states, and report (the symbolic pass
proves each plan's probed twin too — the engine runs it on deep
cost-attribution steps):

* one ``error`` finding per proven inequivalence, carrying a concrete
  witness (encoding word + operand fields + machine pre-state) and a
  ready-to-run repro command,
* one ``warn`` finding per rule the validator could not decide
  (explicit, never silent — an unverified rule is a visible gap),
* one ``info`` summary finding per spec with rule counts and per-tier
  discharge statistics.

Clean verdicts are cached as certificates in the run store
(:mod:`repro.runstore.certs`), keyed on the spec digest, the codegen
version and the validator version; a cache hit skips the proofs and
says so in the summary finding.  ``REPRO_TRANSVAL_SEED_BUG=<isa>:<rule>``
injects a canned codegen bug (first mask literal corrupted) into the
concrete pass for that rule — the CI gate-efficacy fixture; seeded runs
neither read nor write certificates.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, Optional

from .base import TRANSVAL, LintContext, LintPass, register
from .findings import ERROR, INFO, WARN, Finding

__all__ = ["TransvalConcretePass", "TransvalSymbolicPass"]

SEED_BUG_ENV = "REPRO_TRANSVAL_SEED_BUG"


def _seed_bug_override(model, mode: str) -> Optional[Dict[str, str]]:
    """The ``{rule: mutated source}`` override requested via the
    environment, or None.  Unknown rule names raise: a CI fixture that
    silently seeds nothing would "prove" the gate works when it can't.
    """
    spec = os.environ.get(SEED_BUG_ENV, "").strip()
    if not spec or mode != "concrete":
        return None
    isa, _, rule = spec.partition(":")
    if isa != model.name or not rule:
        return None
    from ..compile import compiled_for
    from ..verify import seeded_mutation
    instr = model.by_name.get(rule)
    if instr is None:
        raise ValueError("%s=%s: %s has no rule %r"
                         % (SEED_BUG_ENV, spec, isa, rule))
    return {rule: seeded_mutation(compiled_for(model).concrete.source(instr))}


class _TransvalPass(LintPass):
    """Shared driver; subclasses pick the compiled artifact to verify."""

    family = TRANSVAL
    default_severity = ERROR
    mode = ""

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        from ..compile import CODEGEN_VERSION
        from ..isa.model import ArchModel
        from ..runstore.certs import load_certificate, save_certificate
        from ..runstore.provenance import spec_digest
        from ..verify import (COUNTEREXAMPLE, PROVED, TIERS, UNSUPPORTED,
                              VALIDATOR_VERSION, verify_model)

        try:
            model = ArchModel(ctx.spec)
            if os.path.exists(ctx.path):
                model.source_path = os.path.abspath(ctx.path)
        except Exception as error:  # broken spec: other passes own it
            yield self.finding(
                ctx, "translation validation skipped: cannot build "
                "machine model (%s)" % error, severity=WARN)
            return
        digest = spec_digest(model)
        overrides = _seed_bug_override(model, self.mode)
        if overrides is None:
            cert = load_certificate(digest, CODEGEN_VERSION,
                                    VALIDATOR_VERSION, self.id)
            if cert is not None:
                summary = cert.get("summary", {})
                yield self.finding(
                    ctx, "translation validated (cached certificate): "
                    "%s/%s rules proved equivalent [%s]"
                    % (summary.get("proved", "?"),
                       summary.get("rules", "?"), self.mode),
                    severity=INFO,
                    details={"cached": True, "certificate": cert["key"],
                             "summary": summary})
                return

        start = time.perf_counter()
        results = verify_model(model, self.mode,
                               solver_factory=ctx.new_solver,
                               check=ctx.check,
                               source_overrides=overrides)
        elapsed = time.perf_counter() - start
        tiers = {key: 0 for key in TIERS}
        proved = 0
        for result in results:
            for key, count in result.tiers.items():
                tiers[key] += count
            line = model.by_name[result.rule].decl.line
            if result.status == PROVED:
                proved += 1
            elif result.status == COUNTEREXAMPLE:
                for ce in result.counterexamples:
                    yield self.finding(
                        ctx, "compiled %s semantics diverge from the "
                        "reference IR — %s"
                        % (self.mode, ce.describe()),
                        line=line, instruction=result.rule,
                        severity=ERROR, witness=ce.word,
                        details={
                            "destination": ce.label,
                            "word": ce.word_hex,
                            "fields": dict(ce.fields),
                            "prestate": dict(ce.prestate),
                            "reference": ce.ref_value,
                            "compiled": ce.cand_value,
                            "repro": _repro_snippet(model.name, self.mode,
                                                    result.rule),
                        })
            else:  # UNSUPPORTED — explicit gap, never a silent skip
                assert result.status == UNSUPPORTED
                yield self.finding(
                    ctx, "rule not verified (%s mode): %s"
                    % (self.mode, result.detail),
                    line=line, instruction=result.rule, severity=WARN)
        summary = {
            "isa": model.name,
            "mode": self.mode,
            "rules": len(results),
            "proved": proved,
            "tiers": tiers,
            "seconds": round(elapsed, 3),
        }
        yield self.finding(
            ctx, "translation validated: %d/%d rules proved equivalent "
            "[%s] (discharged: %s)"
            % (proved, len(results), self.mode,
               ", ".join("%s=%d" % (key, tiers[key])
                         for key in TIERS if tiers[key])),
            severity=INFO, details=dict(summary, cached=False))
        if proved == len(results) and overrides is None:
            save_certificate(digest, CODEGEN_VERSION, VALIDATOR_VERSION,
                             self.id, summary)


def _repro_snippet(isa: str, mode: str, rule: str) -> str:
    return ("PYTHONPATH=src python -c \"from repro.isa import build; "
            "from repro.verify import verify_model; "
            "[print(r.to_dict()) for r in verify_model(build(%r), %r) "
            "if r.rule == %r]\"" % (isa, mode, rule))


@register
class TransvalConcretePass(_TransvalPass):
    id = "transval-concrete"
    title = ("prove the generated concrete transfer functions "
             "equivalent to the reference IR (all operands, all "
             "pre-states)")
    mode = "concrete"


@register
class TransvalSymbolicPass(_TransvalPass):
    id = "transval-symbolic"
    title = ("prove the compiled symbolic plans equivalent to the "
             "reference IR (all operands, all pre-states)")
    mode = "symbolic"
