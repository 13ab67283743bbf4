#include <gtest/gtest.h>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "frontend/parser.hpp"
#include "reference_oracles.hpp"

namespace ad::loc {
namespace {

TEST(Privatization, TFFT2WorkspaceMarkingsAreJustified) {
  const auto prog = codes::makeTFFT2();
  const auto params = codes::bindParams(prog, {{"P", 8}, {"Q", 8}});
  // Y is declared private in F3 and F6; the exact check agrees.
  EXPECT_TRUE(reference::inferPrivatizable(prog, 2, "Y", params));
  EXPECT_TRUE(reference::inferPrivatizable(prog, 5, "Y", params));
  EXPECT_TRUE(reference::unjustifiedPrivatizations(prog, 2, params).empty());
  EXPECT_TRUE(reference::unjustifiedPrivatizations(prog, 5, params).empty());
  // X is the flow-through array: never privatizable.
  for (std::size_t k = 0; k < prog.phases().size(); ++k) {
    EXPECT_FALSE(reference::inferPrivatizable(prog, k, "X", params)) << "F" << k + 1;
  }
}

TEST(Privatization, ExposedReadBlocksPrivatization) {
  // The workspace is read before being written: the value flows in from
  // outside the iteration, so privatizing it would change semantics.
  const auto prog = frontend::parseProgram(R"(
    param N
    array W(N*4)
    array A(N*4)
    phase f {
      doall i = 0, N - 1 {
        do j = 0, 3 {
          read W(4*i + j)
          write W(4*i + j)
          write A(4*i + j)
        }
      }
    }
    phase sink {
      doall i = 0, N - 1 { read A(i) }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  EXPECT_FALSE(reference::inferPrivatizable(prog, 0, "W", {{n, 8}}));
}

TEST(Privatization, LivenessBlocksPrivatization) {
  // Written-then-read inside the iteration, but consumed downstream: the
  // paper's restriction ("value not live after F_k") rejects it.
  const auto prog = frontend::parseProgram(R"(
    param N
    array W(N)
    phase produce {
      doall i = 0, N - 1 {
        write W(i)
        read W(i)
      }
    }
    phase consume {
      doall i = 0, N - 1 { read W(i) }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  EXPECT_FALSE(reference::inferPrivatizable(prog, 0, "W", {{n, 8}}));
  // But the same phase IS privatizable when the consumer writes first.
  const auto prog2 = frontend::parseProgram(R"(
    param N
    array W(N)
    phase produce {
      doall i = 0, N - 1 {
        write W(i)
        read W(i)
      }
    }
    phase overwrite {
      doall i = 0, N - 1 { write W(i) }
    }
  )");
  const auto n2 = *prog2.symbols().lookup("N");
  EXPECT_TRUE(reference::inferPrivatizable(prog2, 0, "W", {{n2, 8}}));
}

TEST(Privatization, CyclicProgramsWrapTheLivenessWalk) {
  // In a cyclic program the "next use" can be an earlier phase.
  const auto prog = frontend::parseProgram(R"(
    param N
    array W(N)
    cyclic
    phase readerphase {
      doall i = 0, N - 1 { read W(i) }
    }
    phase scratch {
      doall i = 0, N - 1 {
        write W(i)
        read W(i)
      }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  // scratch's W wraps around to readerphase, which reads it: live.
  EXPECT_FALSE(reference::inferPrivatizable(prog, 1, "W", {{n, 8}}));
}

TEST(Privatization, ReadOnlyArraysAreNotPrivatizable) {
  const auto prog = frontend::parseProgram(R"(
    param N
    array W(N)
    phase f {
      doall i = 0, N - 1 { read W(i) }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  EXPECT_FALSE(reference::inferPrivatizable(prog, 0, "W", {{n, 8}}));
  EXPECT_FALSE(reference::inferPrivatizable(prog, 0, "nope", {{n, 8}}));
}

TEST(Privatization, UnjustifiedDeclarationIsReported) {
  const auto prog = frontend::parseProgram(R"(
    param N
    array W(N)
    phase f {
      doall i = 0, N - 1 {
        read W(i)
        write W(i)
      }
      private W
    }
    phase sinkphase {
      doall i = 0, N - 1 { read W(i) }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  const auto bad = reference::unjustifiedPrivatizations(prog, 0, {{n, 8}});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "W");
}

}  // namespace
}  // namespace ad::loc
