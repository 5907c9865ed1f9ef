#include "sycl/buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace syclite {
namespace {

TEST(Buffer, CopyInFromHost) {
    std::vector<int> host{1, 2, 3};
    buffer<int> b(host.data(), host.size());
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(b.host_data()[2], 3);
}

TEST(Buffer, WritebackOnDestruction) {
    std::vector<int> host{0, 0, 0};
    {
        buffer<int> b(host.data(), host.size(), use_host_ptr);
        auto acc = b.access(access_mode::write);
        acc[0] = 7;
        acc[2] = 9;
        EXPECT_EQ(host[0], 0);  // not yet written back
    }
    EXPECT_EQ(host[0], 7);
    EXPECT_EQ(host[2], 9);
}

TEST(Buffer, NoWritebackWithoutHostPtrTag) {
    std::vector<int> host{1, 1};
    {
        buffer<int> b(static_cast<const int*>(host.data()), host.size());
        b.access(access_mode::write)[0] = 42;
    }
    EXPECT_EQ(host[0], 1);
}

TEST(Accessor, ReadsAndWritesThroughToStorage) {
    buffer<float> b(4);
    auto w = b.access(access_mode::discard_write);
    for (std::size_t i = 0; i < 4; ++i) w[i] = static_cast<float>(i) * 2.0f;
    auto r = b.access(access_mode::read);
    EXPECT_FLOAT_EQ(r[3], 6.0f);
}

TEST(Accessor, SpanViewsHostStorage) {
    // span() is the accessor's one pointer escape: it views the host
    // storage.
    buffer<double> b(3);
    const accessor<double> acc = b.access(access_mode::read);
    EXPECT_EQ(acc.span(0, 3).data(), b.host_data());
    EXPECT_EQ(acc.span(1, 2).data(), b.host_data() + 1);
    EXPECT_EQ(acc.span(1, 2).size(), 2u);
}

// ---- altis::mem-backed storage ----

TEST(Buffer, DefaultConstructionValueInitializesLikeTheVectorItReplaced) {
    // Recycled pool blocks arrive dirty; buffer(count) must still observe
    // all-zero storage. Dirty the block first to make the memset visible.
    {
        buffer<int> dirty(256, no_init);
        for (std::size_t i = 0; i < dirty.size(); ++i)
            dirty.host_data()[i] = -1;
    }
    buffer<int> b(256);  // magazine LIFO: same block as `dirty`
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(b.host_data()[i], 0) << i;
}

TEST(Buffer, StorageIsSixtyFourByteAligned) {
    buffer<float> b(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.host_data()) % 64, 0u);
}

TEST(Buffer, ZeroSizeBufferHasUniqueNonNullStorage) {
    buffer<int> a(0);
    buffer<int> b(0);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_NE(a.host_data(), nullptr);
    EXPECT_NE(b.host_data(), nullptr);
    EXPECT_NE(a.host_data(), b.host_data());
}

TEST(Buffer, ZeroSizeHostPtrBufferSkipsCopyAndWriteback) {
    int sentinel = 42;
    { buffer<int> b(&sentinel, 0, use_host_ptr); }
    EXPECT_EQ(sentinel, 42);
}

TEST(Buffer, NoInitSkipsZeroFillButStaysWritable) {
    buffer<int> b(1024, no_init);  // contents unspecified; must be usable
    for (std::size_t i = 0; i < b.size(); ++i)
        b.host_data()[i] = static_cast<int>(i);
    EXPECT_EQ(b.host_data()[1023], 1023);
}

TEST(Buffer, NonTrivialElementsAreConstructedAndDestroyed) {
    static int live = 0;
    struct probe {
        probe() { ++live; }
        probe(const probe&) { ++live; }
        ~probe() { --live; }
    };
    {
        buffer<probe> b(16);
        EXPECT_EQ(live, 16);
        buffer<probe> raw(8, no_init);  // non-trivial: still constructed
        EXPECT_EQ(live, 24);
    }
    EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace syclite
