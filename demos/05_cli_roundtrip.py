"""The whole toolchain from a shell, one command at a time.

Generates an instance to disk, hunts it with and without the certificate,
re-verifies the files against brute force, runs a small benchmark battery,
and aggregates the trial CSV into a report. Every file a command writes
carries the config hash of the invocation that produced it, and rerunning
any command with the same flags and seed reproduces its outputs byte for
byte.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent
OUT = HERE / "out" / "cli"
OUT.mkdir(parents=True, exist_ok=True)


def sh(*args):
    print(f"$ qsep {' '.join(args)}")
    r = subprocess.run([sys.executable, "-m", "qsep.cli", *args],
                       capture_output=True, text=True)
    for line in r.stdout.splitlines():
        print(f"  {line}")
    if r.returncode != 0:
        print(r.stderr, file=sys.stderr)
        raise SystemExit(f"exit {r.returncode}")
    print()
    return r.stdout


sh("gen", "--construction", "collision-fn", "--n", "4096",
   "--scales", "2..5", "--seed", "7", "--out-dir", str(OUT))

inst = str(OUT / "collision-fn.instance.json")
cert = str(OUT / "collision-fn.certificate.json")

# Certificate in hand: walk at the planted scale only.
sh("run", "--instance", inst, "--cert", cert,
   "--detector", "cert-collision", "--seed", "3")

# No certificate: sweep the whole scale window.
sh("run", "--instance", inst, "--cert", cert,
   "--detector", "multiscale", "--scales", "2..5", "--seed", "3")

# A corrupted certificate names a wrong scale from the instance's own
# window; it may mislead, but any witness it reports is real.
sh("run", "--instance", inst, "--cert", cert, "--corrupt-cert",
   "--detector", "cert-collision", "--seed", "3")

# Check the files against ground truth: structure partition, brute-force
# witness recount, certificate consistency.
sh("verify", "--instance", inst, "--cert", cert)

# A committed battery file: certificate-aided fixed-point search at three n.
sh("bench", "--battery", str(HERE.parent / "batteries" / "criterion9-slope.json"),
   "--out-dir", str(OUT), "--prefix", "walks", "--plot", "--threads", "1")

sh("report", "--csv", str(OUT / "walks.trials.csv"),
   "--out-dir", str(OUT), "--plot")

print("files written:")
for p in sorted(OUT.iterdir()):
    print(f"  {p.name}")
