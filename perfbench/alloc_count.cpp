#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
allocate(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    void *p = nullptr;
    if (posix_memalign(&p, a < sizeof(void *) ? sizeof(void *) : a,
                       size ? size : 1) == 0)
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

std::uint64_t
allocCount()
{
    return allocations.load(std::memory_order_relaxed);
}

bool
allocCounterSelfTest()
{
    const std::uint64_t before = allocCount();
    int *p = new int(42);
    // Let the pointer escape so the compiler cannot elide the pair.
    asm volatile("" : : "r"(p) : "memory");
    delete p;
    return allocCount() == before + 1;
}

} // namespace perfbench

// libstdc++'s nothrow forms call these, so they are counted too.
void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }

void *
operator new(std::size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
