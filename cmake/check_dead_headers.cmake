# Fails on any header under src/ that nothing built from src/, bench/,
# examples/ or perfbench/ includes, apart from the header's own
# same-stem .cpp, and names each such header.  Tests do not count as
# users: a module only its tests run is dead code.
#
#   cmake -DROOT=<repository root> -P check_dead_headers.cmake
cmake_minimum_required(VERSION 3.24)
if(NOT DEFINED ROOT)
  set(ROOT "${CMAKE_CURRENT_LIST_DIR}/..")
endif()
get_filename_component(ROOT "${ROOT}" ABSOLUTE)

set(allowlist
  # Included only by the source hipify-mini generates at build time
  # (examples/saxpy_hipified, see cmake/FftmvHipify.cmake).
  hipify/hip_compat.hpp)

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.hpp")
set(users)
foreach(dir src bench examples perfbench)
  file(GLOB_RECURSE found "${ROOT}/${dir}/*.hpp" "${ROOT}/${dir}/*.cpp")
  list(APPEND users ${found})
endforeach()

set(included)
foreach(user IN LISTS users)
  get_filename_component(user_dir "${user}" DIRECTORY)
  file(STRINGS "${user}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" path "${line}")
    # Resolve as the compiler does: beside the including file first,
    # then on the src/ include path.
    set(target "")
    if(EXISTS "${user_dir}/${path}")
      get_filename_component(target "${user_dir}/${path}" ABSOLUTE)
    elseif(EXISTS "${ROOT}/src/${path}")
      get_filename_component(target "${ROOT}/src/${path}" ABSOLUTE)
    endif()
    string(FIND "${target}" "${ROOT}/src/" at)
    if(NOT at EQUAL 0)
      continue()
    endif()
    file(RELATIVE_PATH header "${ROOT}/src" "${target}")
    # A header's own implementation file is not a user.
    string(REGEX REPLACE "\\.hpp$" ".cpp" own_source "${ROOT}/src/${header}")
    if(NOT user STREQUAL own_source)
      list(APPEND included "${header}")
    endif()
  endforeach()
endforeach()

set(dead)
foreach(header IN LISTS headers)
  if(NOT header IN_LIST included AND NOT header IN_LIST allowlist)
    list(APPEND dead "src/${header}")
  endif()
endforeach()

if(dead)
  list(JOIN dead "\n  " listing)
  message(FATAL_ERROR
    "headers that nothing under src/, bench/, examples/ or perfbench/ "
    "includes (delete them, or move test-only code to tests/):\n  ${listing}")
endif()
list(LENGTH headers count)
message(STATUS "every one of ${count} src/ headers has a user")
