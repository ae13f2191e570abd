/**
 * @file
 * Return freed heap memory to the operating system.
 *
 * glibc keeps freed memory in the arena of the thread that freed it,
 * and pool workers allocate from arenas of their own. A large
 * transient freed on one thread therefore stays resident while work
 * on other threads grows the process beside it. releaseFreedHeap()
 * hands such memory back after a phase that ends a large transient.
 * It changes no results, only the resident set; elsewhere than glibc
 * it does nothing.
 */

#ifndef RCACHE_UTIL_HEAP_HH
#define RCACHE_UTIL_HEAP_HH

#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace rcache
{

inline void
releaseFreedHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

} // namespace rcache

#endif // RCACHE_UTIL_HEAP_HH
