"""BaFFLe: Backdoor Detection via Feedback-based Federated Learning.

A full, from-scratch reproduction of Andreina, Marson, Möllering and
Karame, *BaFFLe: Backdoor detection via Feedback-based Federated Learning*
(IEEE ICDCS 2021, arXiv:2011.02167).

Package layout
--------------
- :mod:`repro.core` — the paper's contribution: the feedback loop
  (Algorithm 1), the per-class misclassification validation function
  (Algorithm 2), Local Outlier Factor, and the quorum-robustness analysis.
- :mod:`repro.fl` — the federated-learning substrate: FedAvg with a global
  learning rate, client selection, secure-aggregation simulation, and the
  round loop with attack/defense hooks.
- :mod:`repro.nn` — a from-scratch numpy neural-network library (layers,
  losses, SGD, metrics, serialization).
- :mod:`repro.data` — synthetic CIFAR-10-like and FEMNIST-like datasets
  plus Dirichlet / writer partitioning.
- :mod:`repro.attacks` — model replacement, semantic and label-flip
  backdoors, the defense-aware adaptive attacker, and DBA.
- :mod:`repro.baselines` — Byzantine-robust aggregation baselines (Krum,
  trimmed mean, median, norm clipping, FoolsGold, RFA).
- :mod:`repro.experiments` — the evaluation harness reproducing every
  table and figure (see the README's "Scale and deviations from the
  paper").

Quickstart
----------
>>> from repro.experiments import ExperimentConfig, run_detection_experiment
>>> config = ExperimentConfig(dataset="cifar", client_share=0.9)
>>> stats = run_detection_experiment(config, seeds=(0,))
>>> stats.fn_mean  # fraction of backdoor injections that slipped through
0.0
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
