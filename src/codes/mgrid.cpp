#include "codes/suite.hpp"
#include "frontend/parser.hpp"

namespace ad::codes {

// One multigrid V-cycle level in the style of NAS MG, on a 1-D grid:
// Jacobi-smooth the fine grid into US, restrict US to the coarse grid
// (fine index 2i), Jacobi-smooth the coarse grid into RS, interpolate RS
// back into the fine grid. The fine/coarse coupling gives balanced locality
// conditions with 2:1 chunk ratios (BLOCK-CYCLIC chunk adaptation between
// levels). All smoothers write a *different* array than they read — the
// legal DOALL form (the in-place Gauss-Seidel variant has a loop-carried
// flow dependence, which the tests' data-flow oracle correctly rejects).
ir::Program makeMgrid() {
  return frontend::parseProgram(R"(
    pow2param N = 2^n
    array UF(2*N + 2)
    array US(2*N + 2)
    array RC(N + 2)
    array RS(N + 2)
    cyclic

    phase SMOOTH_FINE {
      doall i = 1, 2*N - 1 {
        read UF(i - 1)
        read UF(i)
        read UF(i + 1)
        write US(i)
      }
      work 2.0
    }

    phase RESTRICT {
      doall i = 1, N - 1 {
        read US(2*i - 1)
        read US(2*i)
        read US(2*i + 1)
        write RC(i)
      }
    }

    phase SMOOTH_COARSE {
      doall i = 1, N - 1 {
        read RC(i - 1)
        read RC(i)
        read RC(i + 1)
        write RS(i)
      }
      work 2.0
    }

    phase INTERP {
      doall i = 1, N - 1 {
        read RS(i)
        update UF(2*i)
        update UF(2*i + 1)
      }
    }
  )");
}

}  // namespace ad::codes
