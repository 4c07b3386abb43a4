"""How recruitment style distorts the symptom-status relationship.

We simulate one latent population three times and enrol it three ways:
preferentially when symptomatic (the way symptom-triggered testing recruits),
uniformly at random, and with exact per-stratum class balancing. The 2x2
table of (any symptom) x (infection status) tells the story: enrolment that
conditions on symptoms inflates the association; matching erases it.

Run:  python demos/01_enrolment_bias.py
"""

import os

from confound_audit import SynthConfig, any_symptom_table, enrol, generate_population, table_2x2_stats
from confound_audit.report import emit_figure, write_figure

OUT = os.path.join(os.path.dirname(__file__), "output")


def describe(name, cohort):
    t = any_symptom_table(cohort)
    stats = table_2x2_stats(t)
    print(f"\n{name} (n={len(cohort)})")
    print(f"  phi          {stats.phi:8.4f}")
    print(f"  MI           {stats.mi:8.5f} nats")
    print(f"  sensitivity  {stats.sensitivity:8.4f}   (P(symptomatic | infected))")
    print(f"  specificity  {stats.specificity:8.4f}   (P(asymptomatic | not infected))")
    print(f"  AUC          {stats.auc:8.4f}   (symptoms-only classifier)")
    return t, stats


def main():
    os.makedirs(OUT, exist_ok=True)
    base = dict(n_population=120_000, prevalence=0.02, feature_dim=2, seed=7)

    for mode, title in [
        ("symptoms_based", "Symptom-driven enrolment"),
        ("random", "Random enrolment"),
        ("matched", "Matched enrolment"),
    ]:
        cfg = SynthConfig(**base, enrolment=mode)
        cohort = enrol(generate_population(cfg), cfg)
        t, stats = describe(title, cohort)
        write_figure(os.path.join(OUT, f"enrolment_{mode}"), emit_figure("two_by_two", t, stats, title=title))

    print("\nfigures written to demos/output/enrolment_*.svg")
    print("note how phi collapses to exactly zero under matched enrolment,")
    print("while symptom-driven enrolment inflates it well beyond the random-")
    print("sampling value.")


if __name__ == "__main__":
    main()
