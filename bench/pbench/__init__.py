"""The repo benchmark: time-to-E_Q training, open-loop serving and a layer
ladder with floors. Entry points are ``bench/run.py`` and
``bench/compare.py``; see ``bench/README.md``."""
