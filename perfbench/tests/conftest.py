import sys
from pathlib import Path

# the benchmark's modules live in perfbench/, not in a package
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
