"""Experiment runners — one per paper table/figure.

Every runner exposes ``run(config) -> result`` returning plain dicts /
dataclasses that print the same rows or series the paper reports, plus a
``fast_config()`` (seconds, used by tests and CI benchmarks), a
``full_config()`` (minutes, the paper-scale budget used by
``scripts/run_full_experiments.py`` for the paper's figures and
``scripts/run_extension_experiments.py`` for the extension studies)
and a ``format_report(result)`` — the one place the study's column
headers are written, which the CLI, both scripts, the benchmark report
tests and the examples all print through.  The circuit-level studies
score an analog product against the exact one with
:func:`repro.cim.relative_error`.

The paper's studies (the first table below) also declare their claims
once, as ``CLAIMS`` (:class:`~repro.experiments.common.Claim`: a name,
the paper's statement, a measure and a predicate), and
``claims(result)`` checks them against a run.  ``format_report`` ends in that claims table, and
``tests/test_experiments.py`` asserts every claim on the fast runs.

=============  ====================================================
module         reproduces
=============  ====================================================
``fig6b``      ATL transferability decay (Fig. 6b)
``fig10``      ReBranch generalization: accuracy + area (Fig. 10)
``fig11``      Branch compression D*U and D-U split sweeps (Fig. 11)
``fig12``      Detection mAP + chip area (Fig. 12)
``table1``     ROM-CiM macro specification summary (Table I)
``fig14``      Chip-level system comparison (Fig. 14a-c)
=============  ====================================================

Extension studies (paper prose / named future work):

==================  ================================================
module              implements
==================  ================================================
``encoding_study``  sec. 3.1 word-line encoding trade-off
``cim_accuracy``    end-to-end accuracy vs (ADC bits, encoding)
``pipeline_study``  sec. 4.3.3 ping-pong weight reload
``du_search``       sec. 3.2 minimum-area D/U selection
``related_work_quant``  sec. 2.3 sub-8-bit quantization claim
``options_study``   Options I-IV head-to-head (Fig. 6)
``ablations``       ADC bits, bit-line noise, packing, standby, init
``runtime_study``   compile-once runtime amortization (serving/streaming)
``shard_study``     sharded pipeline-parallel makespans on executed traffic
``warmstart_study``  cold compile vs persisted-artifact warm start
==================  ================================================
"""

from repro.experiments import (
    ablations,
    cim_accuracy,
    du_search,
    encoding_study,
    fig6b,
    fig10,
    fig11,
    fig12,
    fig14,
    options_study,
    pipeline_study,
    related_work_quant,
    runtime_study,
    shard_study,
    table1,
    warmstart_study,
)
from repro.experiments.common import (
    PretrainedBundle,
    pretrain_classifier,
    clone_with_new_head,
)

__all__ = [
    "ablations",
    "cim_accuracy",
    "du_search",
    "encoding_study",
    "fig6b",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "options_study",
    "pipeline_study",
    "related_work_quant",
    "runtime_study",
    "shard_study",
    "table1",
    "warmstart_study",
    "PretrainedBundle",
    "pretrain_classifier",
    "clone_with_new_head",
]
