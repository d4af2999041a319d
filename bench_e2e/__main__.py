import sys

from bench_e2e.run import main

sys.exit(main())
