"""End-to-end benchmark of the simulator and its experiment service.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
