# Adds the benchmark to the repository's own CMake build without
# touching it: run.py passes this file as
# CMAKE_PROJECT_harmonia_INCLUDE, so CMake reads it right after the
# top-level project() call. The include is deferred to the end of the
# top-level CMakeLists.txt, so the benchmark's targets are defined in
# the top-level directory with the repository's own flags, options and
# library targets.
# Deferred arguments are expanded when the call runs, so the path is
# spliced in now as a literal.
cmake_language(EVAL CODE
    "cmake_language(DEFER CALL include [==[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]==])")
