//===- tests/test_support.cpp - support/ unit tests ----------------------------===//

#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "support/Error.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>

using namespace dnnfusion;

namespace {

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("empty"), "empty");
  EXPECT_EQ(formatString("%05d", 7), "00007");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(splitString("xyz", ','), (std::vector<std::string>{"xyz"}));
}

TEST(StringUtils, JoinInvertsSplit) {
  std::vector<std::string> Pieces = {"a", "b", "c"};
  EXPECT_EQ(splitString(joinStrings(Pieces, ","), ','), Pieces);
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("a"), "a");
}

TEST(Rng, DeterministicForSeed) {
  Rng A(7), B(7), C(8);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Rng, FloatInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    float V = R.nextFloat();
    EXPECT_GE(V, 0.0f);
    EXPECT_LT(V, 1.0f);
  }
}

TEST(Rng, RangeInclusive) {
  Rng R(5);
  std::set<int64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    int64_t V = R.nextInRange(2, 5);
    EXPECT_GE(V, 2);
    EXPECT_LE(V, 5);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 4u); // All four values appear.
}

/// The known-answer input of docs/FORMAT.md: byte i is i mod 251.
std::vector<unsigned char> hashInput(size_t Size) {
  std::vector<unsigned char> In(Size);
  for (size_t I = 0; I < Size; ++I)
    In[I] = static_cast<unsigned char>(I % 251);
  return In;
}

TEST(Hash64, MatchesTheFormatsKnownAnswers) {
  // The values docs/FORMAT.md lists. Lengths 0-71 take every path: no
  // stripe, one and two 32-byte stripes, 0-3 trailing words and 0-7 tail
  // bytes.
  static const uint64_t Want[72] = {
      0xc1620d0a2dcaa9d2ull, 0x2ccc2711faa975c3ull, 0x0faeb18127339f00ull,
      0x04081c8bee187416ull, 0x9a94ade17859c97bull, 0x3fe340116952f356ull,
      0x8979946bb882f979ull, 0xe01a887d9c9682d8ull, 0x97e8139805bd0e52ull,
      0xf045c0505ed8e68dull, 0xad060b8c19082b57ull, 0x59a4ce056f96f1cfull,
      0x9985f90344e93c8dull, 0x8efb88c0d9ba29f2ull, 0x767e0b2de53e7f73ull,
      0xa0437f9b5bcd383eull, 0xd3090daef13e9768ull, 0xd6526353c325c166ull,
      0x49fb19d524534deaull, 0x57eea31462e2178cull, 0x87af020ec23a1319ull,
      0x7f96dad8b77a882eull, 0x3e6f1e1b96d3265full, 0x9823203acceadc12ull,
      0x81a7ce0c21ac1244ull, 0x14875fcf6844f0b6ull, 0x7e70462ea8f075f9ull,
      0x1004f3cf1a2a0c5dull, 0x070d531c7b9bf46cull, 0x1b7d08bd1f2ec28aull,
      0xcb502bcfabe1eba4ull, 0xd666696570230db0ull, 0x92b1da728fa08d6aull,
      0xd64d7f59704417a8ull, 0xb3ed575fc2ebc893ull, 0x4edb3f53f2cc40d2ull,
      0x92f6d949112216a5ull, 0x1c9a1368a23759f1ull, 0x72de546c9e38741eull,
      0x88bfac38ccb589e5ull, 0xfa600f1d20a74c39ull, 0x5671ecce1812b13aull,
      0xb9c0f710558c9b7eull, 0x1a28fc50da849014ull, 0x679faa3dde6f6516ull,
      0x3938725c6f0a128eull, 0x418366b817ae5dc7ull, 0x4a03eeaee114c499ull,
      0xb5eaf27f42307db7ull, 0x7bbd583dd425d693ull, 0xfd51fb16f5b8e486ull,
      0x0fe584bdd0ad264cull, 0x0aa3db7de79c08efull, 0x9b730db341d3706aull,
      0x00c90a3d73dcb0b7ull, 0x729e1c914a205244ull, 0x0d138ee01e22d4baull,
      0x74642df59cb7ef2dull, 0x632d50c54a07afcfull, 0x3b0a5ead3368b51dull,
      0x5dd1f41adf183528ull, 0xcd96c0d1f4ac9259ull, 0x4fa0decd5fed92d0ull,
      0x6c1139bda320cdd1ull, 0x3e31561c284edf11ull, 0xa7777fbcc6142e9bull,
      0x687b534c60a40847ull, 0x259055762534e06eull, 0x9a7352f93af159f5ull,
      0xcac232c79c4858f5ull, 0xf93a5883a038fd6bull, 0xc140172549299274ull,
  };
  std::vector<unsigned char> In = hashInput(size_t(1) << 20);
  for (size_t N = 0; N < 72; ++N)
    EXPECT_EQ(hash64(In.data(), N), Want[N]) << "length " << N;
  EXPECT_EQ(hash64(In.data(), In.size()), 0xc91146372cc64abaull);
  EXPECT_EQ(hash64(std::string(In.begin(), In.begin() + 71)), Want[71]);
}

TEST(Hash64, EveryBitFlipChangesTheHash) {
  std::vector<unsigned char> In = hashInput(129);
  const uint64_t Base = hash64(In.data(), In.size());
  for (size_t Bit = 0; Bit < 8 * In.size(); ++Bit) {
    In[Bit / 8] ^= static_cast<unsigned char>(1u << (Bit % 8));
    EXPECT_NE(hash64(In.data(), In.size()), Base) << "bit " << Bit;
    In[Bit / 8] ^= static_cast<unsigned char>(1u << (Bit % 8));
  }
}

TEST(Hash64, SameBytesHashAlikeAtAnUnalignedStart) {
  std::vector<unsigned char> In = hashInput(200);
  for (size_t Offset = 1; Offset < 8; ++Offset) {
    std::vector<unsigned char> Shifted(Offset, 0xee);
    Shifted.insert(Shifted.end(), In.begin(), In.end());
    for (size_t N : {0, 7, 8, 31, 32, 33, 71, 200})
      EXPECT_EQ(hash64(Shifted.data() + Offset, N), hash64(In.data(), N))
          << "offset " << Offset << ", length " << N;
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> Hits(100000);
  parallelFor(100000, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      ++Hits[static_cast<size_t>(I)];
  });
  for (const auto &H : Hits)
    ASSERT_EQ(H.load(), 1);
}

TEST(ThreadPool, SmallCountsRunInline) {
  int Calls = 0;
  parallelFor(10, [&](int64_t Begin, int64_t End) {
    ++Calls;
    EXPECT_EQ(Begin, 0);
    EXPECT_EQ(End, 10);
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoops) {
  bool Called = false;
  parallelFor(0, [&](int64_t, int64_t) { Called = true; });
  parallelFor(-5, [&](int64_t, int64_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  // Header and separator and two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
}

TEST(Timer, Monotonic) {
  WallTimer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  EXPECT_GE(A, 0.0);
}

TEST(ErrorDeath, CheckMacroAborts) {
  EXPECT_DEATH(DNNF_CHECK(false, "boom %d", 42), "boom 42");
}

//===----------------------------------------------------------------------===//
// StringUtils: edge cases
//===----------------------------------------------------------------------===//

TEST(StringUtils, FormatStringLongerThanAnyInternalBuffer) {
  std::string Big(10000, 'x');
  std::string Out = formatString("<%s>", Big.c_str());
  EXPECT_EQ(Out.size(), Big.size() + 2);
  EXPECT_EQ(Out.front(), '<');
  EXPECT_EQ(Out.back(), '>');
  EXPECT_EQ(Out.substr(1, Big.size()), Big);
}

TEST(StringUtils, SplitOnAbsentSeparator) {
  EXPECT_EQ(splitString("abc", 'x'), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(splitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtils, JoinEdgeCases) {
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"only"}, ", "), "only");
  EXPECT_EQ(joinStrings({"a", "", "c"}, "-"), "a--c");
}

TEST(StringUtils, TrimHandlesCarriageReturns) {
  EXPECT_EQ(trimString("\r\n a=b \r\n"), "a=b");
  EXPECT_EQ(trimString("no-trim"), "no-trim");
  EXPECT_EQ(trimString(""), "");
}

TEST(StringUtils, IntsToStringFormatsLikeSignatures) {
  EXPECT_EQ(intsToString({}), "[]");
  EXPECT_EQ(intsToString({5}), "[5]");
  EXPECT_EQ(intsToString({1, 2, 3}), "[1, 2, 3]");
  EXPECT_EQ(intsToString({-3, 0, 7, 1ll << 40}), "[-3, 0, 7, 1099511627776]");
}

//===----------------------------------------------------------------------===//
// ThreadPool: the class itself (the wrapper is covered above)
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ExplicitSizeIsHonored) {
  ThreadPool One(1), Four(4);
  EXPECT_EQ(One.numThreads(), 1u);
  EXPECT_EQ(Four.numThreads(), 4u);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Seen;
  Pool.parallelFor(1 << 20, [&](int64_t, int64_t) {
    Seen = std::this_thread::get_id();
  });
  EXPECT_EQ(Seen, Caller);
}

TEST(ThreadPool, SliceBoundariesAreDeterministic) {
  // Slice boundaries must depend only on the trip count and pool size —
  // never on scheduling — so instrumentation counters are reproducible.
  ThreadPool Pool(4);
  auto Collect = [&](int64_t Count) {
    std::mutex M;
    std::vector<std::pair<int64_t, int64_t>> Slices;
    Pool.parallelFor(Count, [&](int64_t Begin, int64_t End) {
      std::lock_guard<std::mutex> Lock(M);
      Slices.emplace_back(Begin, End);
    });
    std::sort(Slices.begin(), Slices.end());
    return Slices;
  };
  int64_t Count = 100000;
  auto A = Collect(Count), B = Collect(Count);
  EXPECT_EQ(A, B);
  // Slices tile [0, Count) exactly.
  int64_t Expected = 0;
  for (const auto &[Begin, End] : A) {
    EXPECT_EQ(Begin, Expected);
    EXPECT_LT(Begin, End);
    Expected = End;
  }
  EXPECT_EQ(Expected, Count);
  EXPECT_GT(A.size(), 1u);
}

using SliceList = std::vector<std::pair<int64_t, int64_t>>;

/// The [Begin, End) slices one parallelFor call on \p Pool runs, sorted.
SliceList slicesOf(ThreadPool &Pool, int64_t Count, int64_t Grain) {
  std::mutex M;
  SliceList Slices;
  Pool.parallelFor(
      Count,
      [&](int64_t Begin, int64_t End) {
        std::lock_guard<std::mutex> Lock(M);
        Slices.emplace_back(Begin, End);
      },
      Grain);
  std::sort(Slices.begin(), Slices.end());
  return Slices;
}

TEST(ThreadPool, BelowTwoGrainsRunsOnceInline) {
  ThreadPool Pool(4);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::pair<int64_t, int64_t>> CountsAndGrains = {
      {1, 1}, {63, 32}, {1000, 600}, {8191, ThreadPool::DefaultGrain}};
  for (const auto &CG : CountsAndGrains) {
    const int64_t Count = CG.first, Grain = CG.second;
    std::atomic<int> Calls{0};
    std::thread::id Seen;
    Pool.parallelFor(
        Count,
        [&](int64_t Begin, int64_t End) {
          ++Calls;
          Seen = std::this_thread::get_id();
          EXPECT_EQ(Begin, 0);
          EXPECT_EQ(End, Count);
        },
        Grain);
    EXPECT_EQ(Calls.load(), 1) << Count << " at grain " << Grain;
    EXPECT_EQ(Seen, Caller);
  }
}

TEST(ThreadPool, GrainSetsSliceBoundaries) {
  // min(numThreads, ceil(Count / Grain)) equal slices, the last shorter.
  ThreadPool Pool(4);
  EXPECT_EQ(slicesOf(Pool, 64, 32), (SliceList{{0, 32}, {32, 64}}));
  EXPECT_EQ(slicesOf(Pool, 100, 40),
            (SliceList{{0, 34}, {34, 68}, {68, 100}}));
  EXPECT_EQ(slicesOf(Pool, 10, 1),
            (SliceList{{0, 3}, {3, 6}, {6, 9}, {9, 10}}));
  EXPECT_EQ(slicesOf(Pool, 8192, ThreadPool::DefaultGrain),
            (SliceList{{0, 4096}, {4096, 8192}}));
  // The serving MLP's 1024-row layer, W[1024, 1024] @ x[1024, N], at its
  // work grains. At N = 1 the narrow-rows tile pads nothing, so a row
  // costs 1024 multiply-adds: two 512-row slices. At N = 8 the 8-wide
  // panel's rows cost 8 * 1024: one 256-row slice per thread.
  EXPECT_EQ(slicesOf(Pool, 1024, detail::gemmRowGrain(1, 1024, /*NR=*/0)),
            (SliceList{{0, 512}, {512, 1024}}));
  EXPECT_EQ(slicesOf(Pool, 1024, detail::gemmRowGrain(8, 1024, GemmNarrowNR)),
            (SliceList{{0, 256}, {256, 512}, {512, 768}, {768, 1024}}));
}

TEST(GemmRowGrain, SmallGemmsStayInlineAndWideGemvsSplit) {
  KernelConfig Config;
  // A row costs N padded to the panel width, times K, multiply-adds.
  EXPECT_EQ(detail::gemmRowGrain(1, 1024, GemmNarrowNR),
            detail::gemmRowGrain(GemmNarrowNR, 1024, GemmNarrowNR));
  EXPECT_EQ(detail::gemmRowGrain(1, 1024, /*NR=*/0),
            GemmNarrowNR * detail::gemmRowGrain(1, 1024, GemmNarrowNR));
  EXPECT_EQ(detail::gemmRowGrain(1 << 12, 1 << 12, 0), 1);
  EXPECT_EQ(detail::gemmRowGrain(0, 0, 0), detail::GemmMacsPerSlice);

  ThreadPool Pool(4);
  // 16x16x16, on the route it takes unpacked and prepacked: one slice.
  for (bool Prepacked : {false, true}) {
    GemmRoute R = gemmRoute(Config, 16, 16, 16, /*TransA=*/false, Prepacked);
    EXPECT_EQ(slicesOf(Pool, 16, detail::gemmRowGrain(16, 16, R.NR)).size(),
              1u)
        << "prepacked " << Prepacked;
  }
  // The 1024x1024 layer at batch 1, on the narrow-rows tile: two slices.
  GemmRoute R1 = gemmRoute(Config, 1024, 1, 1024, /*TransA=*/false,
                           /*Prepacked=*/false);
  ASSERT_EQ(R1.Path, GemmRoute::NarrowRows);
  EXPECT_EQ(slicesOf(Pool, 1024, detail::gemmRowGrain(1, 1024, R1.NR)).size(),
            2u);
  // At batch 8, on the 8-wide panel: every thread gets a slice.
  GemmRoute R8 = gemmRoute(Config, 1024, 8, 1024, /*TransA=*/false,
                           /*Prepacked=*/false);
  ASSERT_EQ(R8.Path, GemmRoute::Panel);
  ASSERT_EQ(R8.NR, GemmNarrowNR);
  EXPECT_EQ(slicesOf(Pool, 1024, detail::gemmRowGrain(8, 1024, R8.NR)).size(),
            static_cast<size_t>(Pool.numThreads()));
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool Pool(3);
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<int64_t> Sum{0};
    Pool.parallelFor(20000, [&](int64_t Begin, int64_t End) {
      int64_t Local = 0;
      for (int64_t I = Begin; I < End; ++I)
        Local += I;
      Sum += Local;
    });
    EXPECT_EQ(Sum.load(), int64_t(20000) * 19999 / 2);
  }
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().numThreads(), 1u);
  EXPECT_LE(ThreadPool::global().numThreads(), 8u);
}

/// Blocks each caller until \p Expected callers have arrived. Used inside
/// a grain-1 parallelFor of Expected iterations, one slice each, it keeps
/// every slice in flight at once, so at least one runs on a worker thread
/// (the participating master can hold only one) and the worker-only inline
/// path is deterministically exercised.
class Rendezvous {
public:
  explicit Rendezvous(int Expected) : Expected(Expected) {}
  void arriveAndWait() {
    std::unique_lock<std::mutex> Lock(M);
    ++Arrived;
    Cv.notify_all();
    Cv.wait(Lock, [&] { return Arrived == Expected; });
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  int Arrived = 0;
  const int Expected;
};

TEST(ThreadPool, ParallelForInsideWorkerRunsInlineWithoutDeadlock) {
  // A kernel's parallelFor can run inside another pool task on the same
  // pool. That nested call must execute inline on the worker — enqueueing
  // and blocking would deadlock a fully busy pool. Regression gate for the
  // reentrancy guarantee.
  ThreadPool Pool(2);
  const int64_t Outer = 2, Inner = 1 << 15; // Inner > 2 * DefaultGrain.
  std::vector<std::atomic<int64_t>> Sums(Outer);
  for (auto &S : Sums)
    S = 0;
  Rendezvous AllInFlight(Outer);
  std::atomic<int> WorkerDispatches{0};
  Pool.parallelFor(
      Outer,
      [&](int64_t OuterBegin, int64_t OuterEnd) {
        EXPECT_EQ(OuterEnd - OuterBegin, 1);
        const int64_t I = OuterBegin;
        AllInFlight.arriveAndWait();
        bool OnWorker = Pool.onWorkerThread();
        std::thread::id Caller = std::this_thread::get_id();
        Pool.parallelFor(Inner, [&](int64_t Begin, int64_t End) {
          if (OnWorker) {
            // Inline on the worker: same thread, one slice covering the
            // whole range. (On the master a nested parallelFor may
            // dispatch normally, which is deadlock-free.)
            EXPECT_EQ(std::this_thread::get_id(), Caller);
            EXPECT_EQ(Begin, 0);
            EXPECT_EQ(End, Inner);
          }
          int64_t Local = 0;
          for (int64_t J = Begin; J < End; ++J)
            Local += J;
          Sums[static_cast<size_t>(I)] += Local;
        });
        if (OnWorker)
          ++WorkerDispatches;
      },
      /*Grain=*/1);
  EXPECT_GE(WorkerDispatches.load(), 1);
  for (int64_t I = 0; I < Outer; ++I)
    EXPECT_EQ(Sums[static_cast<size_t>(I)].load(), Inner * (Inner - 1) / 2);
}

TEST(ThreadPool, WorkerIdentification) {
  ThreadPool Pool(3);
  EXPECT_FALSE(Pool.onWorkerThread());
  // A worker of one pool is not a worker of another.
  ThreadPool Other(2);
  Pool.parallelFor(
      16,
      [&](int64_t, int64_t) {
        if (Pool.onWorkerThread()) {
          EXPECT_FALSE(Other.onWorkerThread());
        }
      },
      /*Grain=*/1);
}

TEST(ThreadPool, ConcurrentMastersEachCompleteTheirOwnGroup) {
  // Several independent threads sharing one pool (the InferenceSession
  // pattern): every parallelFor call must wait on exactly its own
  // task group and observe its own full iteration space.
  ThreadPool Pool(4);
  const int Masters = 4;
  std::vector<std::thread> Threads;
  std::vector<int64_t> Results(Masters, 0);
  for (int T = 0; T < Masters; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round < 20; ++Round) {
        std::atomic<int64_t> Sum{0};
        const int64_t Count = 10000 + T * 1000;
        Pool.parallelFor(Count, [&](int64_t Begin, int64_t End) {
          int64_t Local = 0;
          for (int64_t I = Begin; I < End; ++I)
            Local += I;
          Sum += Local;
        });
        Results[static_cast<size_t>(T)] = Sum.load();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < Masters; ++T) {
    int64_t Count = 10000 + T * 1000;
    EXPECT_EQ(Results[static_cast<size_t>(T)], Count * (Count - 1) / 2);
  }
}

//===----------------------------------------------------------------------===//
// TablePrinter: exact rendering
//===----------------------------------------------------------------------===//

TEST(TablePrinter, ExactRendering) {
  TablePrinter T({"op", "ms"});
  T.addRow({"Conv", "1.5"});
  T.addRow({"Add", "10.25"});
  // Columns pad to the widest cell plus two spaces; the separator spans the
  // full width; the last column is not padded.
  EXPECT_EQ(T.render(), "op    ms\n"
                        "-----------\n"
                        "Conv  1.5\n"
                        "Add   10.25\n");
}

TEST(TablePrinter, HeaderOnlyTable) {
  TablePrinter T({"a", "bb"});
  EXPECT_EQ(T.render(), "a  bb\n-----\n");
}

TEST(TablePrinter, SingleColumnHasNoPadding) {
  TablePrinter T({"col"});
  T.addRow({"a-very-long-cell"});
  EXPECT_EQ(T.render(), "col\n----------------\na-very-long-cell\n");
}

TEST(TablePrinterDeath, MismatchedRowArityAborts) {
  TablePrinter T({"a", "b"});
  EXPECT_DEATH(T.addRow({"only-one"}), "row arity");
}

//===----------------------------------------------------------------------===//
// Status / Expected: the recoverable error model
//===----------------------------------------------------------------------===//

TEST(Status, DefaultIsOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Ok);
  EXPECT_TRUE(S.message().empty());
  EXPECT_EQ(S.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(ErrorCode::InvalidGraph, "bad wiring");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidGraph);
  EXPECT_EQ(S.message(), "bad wiring");
  EXPECT_EQ(S.toString(), "invalid_graph: bad wiring");
}

TEST(Status, ErrorfFormats) {
  Status S = Status::errorf(ErrorCode::NotFound, "input '%s' (%d of %d)",
                            "image", 1, 3);
  EXPECT_EQ(S.message(), "input 'image' (1 of 3)");
}

TEST(Status, EveryErrorCodeHasAName) {
  for (ErrorCode C :
       {ErrorCode::Ok, ErrorCode::InvalidArgument, ErrorCode::InvalidGraph,
        ErrorCode::NotFound, ErrorCode::FailedPrecondition,
        ErrorCode::DataLoss, ErrorCode::Internal})
    EXPECT_STRNE(errorCodeName(C), "?");
}

TEST(Expected, HoldsValue) {
  Expected<int> E = 42;
  ASSERT_TRUE(E.ok());
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.value(), 42);
  EXPECT_EQ(*E, 42);
  EXPECT_TRUE(E.status().ok());
}

TEST(Expected, HoldsError) {
  Expected<int> E = Status::error(ErrorCode::InvalidArgument, "nope");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.status().code(), ErrorCode::InvalidArgument);
  EXPECT_EQ(E.status().message(), "nope");
}

TEST(Expected, TakeValueMovesOut) {
  Expected<std::vector<int>> E = std::vector<int>{1, 2, 3};
  std::vector<int> V = E.takeValue();
  EXPECT_EQ(V, (std::vector<int>{1, 2, 3}));
}

TEST(Expected, ArrowOperatorReachesMembers) {
  Expected<std::string> E = std::string("abc");
  EXPECT_EQ(E->size(), 3u);
}

TEST(Expected, CantFailUnwraps) {
  EXPECT_EQ(cantFail(Expected<int>(7)), 7);
}

TEST(ExpectedDeath, ValueOnErrorAborts) {
  Expected<int> E = Status::error(ErrorCode::Internal, "boom");
  EXPECT_DEATH(E.value(), "boom");
}

TEST(ExpectedDeath, CantFailOnErrorAborts) {
  EXPECT_DEATH(cantFail(Expected<int>(
                   Status::error(ErrorCode::Internal, "kaboom"))),
               "kaboom");
}

TEST(ExpectedDeath, ErrorExpectedFromOkStatusAborts) {
  Status Ok;
  EXPECT_DEATH(Expected<int>{Ok}, "without a value");
}

TEST(ScopedFatalErrorTrap, ConvertsFatalErrorsToExceptionsInScope) {
  EXPECT_FALSE(ScopedFatalErrorTrap::active());
  bool Caught = false;
  try {
    ScopedFatalErrorTrap Trap;
    EXPECT_TRUE(ScopedFatalErrorTrap::active());
    DNNF_CHECK(false, "trapped %d", 7);
  } catch (const detail::TrappedFatalError &E) {
    Caught = true;
    EXPECT_NE(E.Message.find("trapped 7"), std::string::npos) << E.Message;
  }
  EXPECT_TRUE(Caught);
  EXPECT_FALSE(ScopedFatalErrorTrap::active());
}

TEST(ScopedFatalErrorTrapDeath, OutsideScopeStillAborts) {
  {
    ScopedFatalErrorTrap Trap;
  }
  EXPECT_DEATH(reportFatalError("still fatal"), "still fatal");
}

} // namespace
