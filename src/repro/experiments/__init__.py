"""Experiment reproduction: one module per paper table/figure.

* ``table1`` — measured IR<->assembly construct mapping (paper Table I)
* ``table2`` — benchmark characteristics (paper Table II)
* ``table4`` — dynamic instruction counts per category (paper Table IV)
* ``fig3``   — aggregate crash/SDC/benign outcomes (paper Figure 3)
* ``fig4``   — SDC% per category with 95% CIs (paper Figure 4)
* ``table5`` — crash% per category (paper Table V)
* ``ablation`` — §IV heuristic and §VII fix ablations
* ``runner`` — everything, with caching

Unified entrypoint (see :mod:`repro.experiments.cli`)::

    python -m repro.experiments run <target>   # table1|table2|table4|
                                               # table5|fig3|fig4|ablation|all

It is the only entrypoint; the per-target modules have no ``__main__``.
"""
