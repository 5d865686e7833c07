"""``transval-symbolic``: translation validation as lint findings.

The heavy lifting lives in :mod:`repro.verify`; this pass adapts it to
the lint pipeline.  For each spec it statically proves every rule's
compiled plan — the one generated artifact, which the engine and the
concrete simulator both run through the one plan driver — equivalent
to the reference IR semantics over *all* decodable operand values and
machine pre-states, and reports:

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
injects a canned codegen bug (the first ``add(`` of the rule's plan
source becomes ``sub(``) — the CI gate-efficacy fixture; seeded runs
neither read nor write certificates.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, Optional

from .base import TRANSVAL, LintContext, LintPass, register
from .findings import ERROR, INFO, WARN, Finding

__all__ = ["TransvalSymbolicPass"]

SEED_BUG_ENV = "REPRO_TRANSVAL_SEED_BUG"


def _seed_bug_override(model) -> Optional[Dict[str, str]]:
    """The ``{rule: mutated plan source}`` override requested via the
    environment, or None.  Unknown rule names raise: a CI fixture that
    silently seeds nothing would "prove" the gate works when it can't.
    """
    spec = os.environ.get(SEED_BUG_ENV, "").strip()
    if not spec:
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
    return {rule: seeded_mutation(compiled_for(model).plan.source(instr))}


@register
class TransvalSymbolicPass(LintPass):
    id = "transval-symbolic"
    title = ("prove the compiled plans equivalent to the reference "
             "IR (all operands, all pre-states)")
    family = TRANSVAL
    default_severity = ERROR

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
        overrides = _seed_bug_override(model)
        if overrides is None:
            cert = load_certificate(digest, CODEGEN_VERSION,
                                    VALIDATOR_VERSION, self.id)
            if cert is not None:
                summary = cert.get("summary", {})
                yield self.finding(
                    ctx, "translation validated (cached certificate): "
                    "%s/%s rules proved equivalent"
                    % (summary.get("proved", "?"),
                       summary.get("rules", "?")),
                    severity=INFO,
                    details={"cached": True, "certificate": cert["key"],
                             "summary": summary})
                return

        start = time.perf_counter()
        results = verify_model(model,
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
                        ctx, "compiled semantics diverge from the "
                        "reference IR — %s" % ce.describe(),
                        line=line, instruction=result.rule,
                        severity=ERROR, witness=ce.word,
                        details={
                            "destination": ce.label,
                            "word": ce.word_hex,
                            "fields": dict(ce.fields),
                            "prestate": dict(ce.prestate),
                            "reference": ce.ref_value,
                            "compiled": ce.cand_value,
                            "repro": _repro_snippet(model.name,
                                                    result.rule),
                        })
            else:  # UNSUPPORTED — explicit gap, never a silent skip
                assert result.status == UNSUPPORTED
                yield self.finding(
                    ctx, "rule not verified: %s" % result.detail,
                    line=line, instruction=result.rule, severity=WARN)
        summary = {
            "isa": model.name,
            "rules": len(results),
            "proved": proved,
            "tiers": tiers,
            "seconds": round(elapsed, 3),
        }
        yield self.finding(
            ctx, "translation validated: %d/%d rules proved equivalent "
            "(discharged: %s)"
            % (proved, len(results),
               ", ".join("%s=%d" % (key, tiers[key])
                         for key in TIERS if tiers[key])),
            severity=INFO, details=dict(summary, cached=False))
        if proved == len(results) and overrides is None:
            save_certificate(digest, CODEGEN_VERSION, VALIDATOR_VERSION,
                             self.id, summary)


def _repro_snippet(isa: str, rule: str) -> str:
    return ("PYTHONPATH=src python -c \"from repro.isa import build; "
            "from repro.verify import verify_model; "
            "[print(r.to_dict()) for r in verify_model(build(%r)) "
            "if r.rule == %r]\"" % (isa, rule))
